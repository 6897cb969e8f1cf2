import json
import math
import random

import pytest

from treeclust import (
    Clustering,
    Cut,
    Dataset,
    Internal,
    Leaf,
    LimitExceededError,
    ThresholdTree,
    best_cut,
    brute_explanation,
    check_explainable,
    exact_explain,
    greedy_explain,
    kernelize,
    opt_explain,
    tree_to_json_obj,
)
from treeclust.explanation import _ExactSolver, _best_cut, _drop_left
from treeclust.generate import gen_uniform
from helpers import (
    mixed_instance,
    neighbour_pairs,
    random_clustering,
    survivors_match,
    tree_induced_clustering,
)


def xor_instance():
    ds = Dataset.from_rows([(0, 0), (1, 1), (0, 1), (1, 0)])
    return Clustering(ds, (1, 1, 2, 2), 2)


def separated_instance():
    ds = Dataset.from_rows([(0, 0), (1, 1), (10, 0), (11, 1)])
    return Clustering(ds, (1, 1, 2, 2), 2)


class TestClusteringValidation:
    def test_rejects_missing_label(self):
        ds = Dataset.from_rows([(0,), (1,)])
        with pytest.raises(ValueError):
            Clustering(ds, (1, 1), 2)

    def test_rejects_out_of_range_label(self):
        ds = Dataset.from_rows([(0,), (1,)])
        with pytest.raises(ValueError):
            Clustering(ds, (1, 3), 2)

    def test_rejects_length_mismatch(self):
        ds = Dataset.from_rows([(0,), (1,)])
        with pytest.raises(ValueError):
            Clustering(ds, (1,), 1)

    def test_from_labels(self):
        ds = Dataset.from_rows([(0,), (1,), (2,)])
        cl = Clustering.from_labels(ds, [1, 2, 1])
        assert cl.k == 2
        assert cl.cluster_ids(1) == (0, 2)

    def test_from_labels_rejects_non_integers(self):
        ds = Dataset.from_rows([(0,), (1,)])
        assert Clustering.from_labels(ds, [1, 2.0]).labels == (1, 2)
        for labels in ([1.7, 2.2], [1, 2.5], ["1", 2], [1, math.inf], [1, math.nan], [1, None]):
            with pytest.raises(ValueError, match="labels must be integers"):
                Clustering.from_labels(ds, labels)


class TestBestCut:
    def test_clean_separation_costs_zero(self):
        cl = separated_instance()
        cut, removed = best_cut(cl, set(range(4)))
        assert removed == set()
        assert cut.dim == 1 and cut.theta == 1.0

    def test_duplicates_move_together(self):
        ds = Dataset.from_rows([(0,), (0,), (1,)])
        cl = Clustering(ds, (1, 1, 2), 2)
        cut, removed = best_cut(cl, {0, 1, 2})
        assert removed == set()
        assert (cut.dim, cut.theta) == (1, 0.0)

    def test_xor_cheapest_cut_costs_two(self):
        # every canonical cut splits both clusters 1-1 or hits the all-left
        # degenerate case; the cheapest removal has size 2 (oracle-verified)
        cl = xor_instance()
        _, removed = best_cut(cl, set(range(4)))
        assert len(removed) == 2

    def test_requires_two_clusters(self):
        ds = Dataset.from_rows([(0,), (1,)])
        cl = Clustering(ds, (1, 1), 1)
        with pytest.raises(ValueError):
            best_cut(cl, {0, 1})


def signed_tie_instance(rng: random.Random, n: int, d: int, k: int, hi: int) -> Clustering:
    """Points on {-hi..hi}^d, zeros of either sign, about a third of them
    copies, with shuffled round-robin labels."""
    base = [tuple(rng.choice((1.0, -1.0)) * rng.randint(0, hi) for _ in range(d))
            for _ in range(n - n // 3)]
    pts = base + [rng.choice(base) for _ in range(n // 3)]
    labels = [(i % k) + 1 for i in range(n)]
    rng.shuffle(labels)
    return Clustering(Dataset(tuple(pts)), tuple(labels), k)


def cut_removal(pts, labels, active: list[int], dim: int, theta: float) -> set[int]:
    """Removal set of one cut on its own: each cluster's active points split
    into side lists, and ``_drop_left`` picks the side that goes."""
    sides: dict[int, tuple[list[int], list[int]]] = {}
    for i in active:
        sides.setdefault(labels[i], ([], []))[pts[i][dim - 1] > theta].append(i)
    parts = [sides[lab] for lab in sorted(sides)]
    drops = _drop_left([len(l) for l, _ in parts], [len(r) for _, r in parts])
    return {i for (l, r), drop in zip(parts, drops) for i in (l if drop else r)}


def cut_case(cl: Clustering, active: list[int], dim: int, theta: float) -> str:
    """Majority case of a cut over the active points, as cut_removal sees it."""
    counts: dict[int, list[int]] = {}
    for i in active:
        counts.setdefault(cl.labels[i], [0, 0])[cl.ds.points[i][dim - 1] > theta] += 1
    if all(l > r for l, r in counts.values()):
        last = theta == max(cl.ds.points[i][dim - 1] for i in active)
        return "all-left, last threshold" if last else "all-left"
    if all(r > l for l, r in counts.values()):
        return "all-right"
    return "mixed, balanced" if any(l == r for l, r in counts.values()) else "mixed"


class TestBestCutSweep:
    def test_matches_quadratic_scan(self):
        # the old scan: price every distinct coordinate with cut_removal,
        # keep the least (count, dim, theta); theta from a set of member
        # values keeps the first member's zero sign
        rng = random.Random(41)
        seen: set[str] = set()
        for _ in range(200):
            n, d, k = rng.randint(2, 30), rng.randint(1, 3), rng.randint(2, 5)
            cl = signed_tie_instance(rng, n, d, min(k, n), rng.choice((1, 2, 4)))
            active = sorted(rng.sample(range(n), rng.randint(2, n)))
            if len({cl.labels[i] for i in active}) < 2:
                continue
            pts = cl.ds.points
            want = min(
                (len(cut_removal(pts, cl.labels, active, dim, theta)), dim, theta)
                for dim in range(1, d + 1)
                for theta in sorted({pts[i][dim - 1] for i in active})
            )
            cut, removed = best_cut(cl, set(active))
            assert (len(removed), cut.dim, cut.theta) == want
            assert math.copysign(1.0, cut.theta) == math.copysign(1.0, want[2])
            ref = cut_removal(pts, cl.labels, active, cut.dim, cut.theta)
            assert removed == ref
            # the node's split: a partition of the active points, each part
            # in active order (ascending here), survivors on their cut side
            split_cut, left, right, gone = _best_cut(pts, cl.labels, active)
            assert (split_cut.dim, repr(split_cut.theta)) == (cut.dim, repr(cut.theta))
            assert sorted(left + right + gone) == active
            assert all(part == sorted(part) for part in (left, right, gone))
            assert all(pts[i][cut.dim - 1] <= cut.theta for i in left)
            assert all(pts[i][cut.dim - 1] > cut.theta for i in right)
            assert set(gone) == ref
            seen.add(cut_case(cl, active, cut.dim, cut.theta))
        assert seen == {"all-left", "all-left, last threshold", "all-right", "mixed",
                        "mixed, balanced"}

    def test_greedy_matches_quadratic_reference(self):
        # the whole recursion against a reference greedy whose every node
        # prices each distinct coordinate with cut_removal; the tree as JSON
        # text, so that -0.0 != 0.0
        def reference(cl, active, depth, cases):
            pts = cl.ds.points
            present = sorted({cl.labels[i] for i in active})
            if len(present) == 1:
                return set(), Leaf(present[0])
            _, dim, theta = min(
                (len(cut_removal(pts, cl.labels, active, dim, theta)), dim, theta)
                for dim in range(1, cl.ds.d + 1)
                for theta in sorted({pts[i][dim - 1] for i in active})
            )
            if depth:
                cases.add(cut_case(cl, active, dim, theta))
            removed = cut_removal(pts, cl.labels, active, dim, theta)
            survivors = [i for i in active if i not in removed]
            sides = ([i for i in survivors if pts[i][dim - 1] <= theta],
                     [i for i in survivors if pts[i][dim - 1] > theta])
            if not sides[0] or not sides[1]:
                rem, node = reference(cl, sides[0] or sides[1], depth + 1, cases)
                return removed | rem, node
            (rem_l, node_l), (rem_r, node_r) = (reference(cl, s, depth + 1, cases)
                                                for s in sides)
            return removed | rem_l | rem_r, Internal(Cut(dim, theta), node_l, node_r)

        rng = random.Random(44)
        cases: set[str] = set()
        answers = set()
        for _ in range(320):
            n, d, k = rng.randint(2, 60), rng.randint(1, 3), rng.randint(2, 8)
            cl = signed_tie_instance(rng, n, d, min(k, n), rng.choice((1, 2, 4, 9)))
            removed, root = reference(cl, list(range(n)), 0, cases)
            res = greedy_explain(cl)
            assert res.removed == removed
            assert (json.dumps(tree_to_json_obj(res.tree))
                    == json.dumps(tree_to_json_obj(ThresholdTree(root))))
            assert check_explainable(cl) == (not removed)
            answers.add(not removed)
        assert answers == {True, False}
        assert {"all-left", "all-right", "mixed", "mixed, balanced"} <= cases


def greedy_tie_instance(seed: int) -> Clustering:
    """Fourteen points in {0, 1, 2}^3 with zeros of either sign, five of them
    copies, k from 3 to 5."""
    rng = random.Random(seed)
    k = rng.randint(3, 5)
    base = [tuple(rng.choice((-0.0, 0.0, 1.0, 2.0)) for _ in range(3)) for _ in range(9)]
    pts = base + [rng.choice(base) for _ in range(5)]
    labels = [(i % k) + 1 for i in range(len(pts))]
    rng.shuffle(labels)
    return Clustering(Dataset(tuple(pts)), tuple(labels), k)


class TestGreedyGolden:
    """Pins the greedy's removal set and tree where several cuts tie on the
    removal count: the least (count, dim, theta) wins, and theta keeps the
    zero sign of its first active point. Letting an equal count replace the
    incumbent changes every one of them."""

    EXPECTED = {
        1: ({1, 4, 8, 10, 12, 13},
            '{"dim": 1, "theta": -0.0, "left": {"dim": 2, "theta": -0.0, "left": {"leaf": 2},'
            ' "right": {"leaf": 3}}, "right": {"leaf": 1}}'),
        5: ({2, 3, 4, 12},
            '{"dim": 1, "theta": 1.0, "left": {"dim": 1, "theta": 0.0, "left": {"dim": 3,'
            ' "theta": -0.0, "left": {"leaf": 3}, "right": {"dim": 2, "theta": 0.0, "left":'
            ' {"leaf": 5}, "right": {"leaf": 1}}}, "right": {"leaf": 2}}, "right": {"leaf": 4}}'),
        6: ({1, 3, 5, 8, 9},
            '{"dim": 1, "theta": -0.0, "left": {"dim": 2, "theta": -0.0, "left": {"leaf": 5},'
            ' "right": {"dim": 3, "theta": -0.0, "left": {"leaf": 3}, "right": {"leaf": 4}}},'
            ' "right": {"dim": 1, "theta": 1.0, "left": {"leaf": 1}, "right": {"leaf": 2}}}'),
        11: ({0, 1, 3, 5, 6, 7, 8, 11, 13},
             '{"dim": 1, "theta": -0.0, "left": {"leaf": 1}, "right": {"leaf": 2}}'),
        18: ({5, 6, 7, 8, 9, 11, 12},
             '{"dim": 1, "theta": 1.0, "left": {"dim": 3, "theta": -0.0, "left": {"leaf": 3},'
             ' "right": {"leaf": 1}}, "right": {"leaf": 2}}'),
        25: ({2, 5, 8, 9, 11, 13},
             '{"dim": 2, "theta": 1.0, "left": {"dim": 1, "theta": -0.0, "left": {"dim": 3,'
             ' "theta": 1.0, "left": {"leaf": 2}, "right": {"leaf": 4}}, "right": {"leaf": 1}},'
             ' "right": {"leaf": 3}}'),
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_removal_set_and_tree(self, seed):
        removed, tree = self.EXPECTED[seed]
        cl = greedy_tie_instance(seed)
        res = greedy_explain(cl)
        assert set(res.removed) == removed
        # the JSON text, not the decoded dict, so that -0.0 != 0.0
        assert json.dumps(tree_to_json_obj(res.tree)["tree"]) == tree
        assert survivors_match(cl, res)
        assert not check_explainable(cl)


class TestGreedyAndCheck:
    def test_explainable_input_removes_nothing(self):
        cl = separated_instance()
        res = greedy_explain(cl)
        assert res.removed == frozenset()
        assert check_explainable(cl)
        assert survivors_match(cl, res)

    def test_single_cluster_trivial(self):
        ds = Dataset.from_rows([(0,), (5,)])
        cl = Clustering(ds, (1, 1), 1)
        res = greedy_explain(cl)
        assert res.removed == frozenset()
        assert res.tree.leaf_labels() == [1]

    def test_xor_not_explainable(self):
        cl = xor_instance()
        assert not check_explainable(cl)
        assert greedy_explain(cl).removed_count == 2

    def test_tree_induced_clusterings_are_explainable(self):
        rng = random.Random(21)
        found = 0
        while found < 15:
            cl = tree_induced_clustering(rng, rng.randint(4, 12), rng.randint(1, 3), rng.randint(2, 4))
            if cl is None:
                continue
            found += 1
            assert check_explainable(cl)

    def test_check_matches_oracle(self):
        # brute_explanation takes k <= 3; the exact DP, checked against it
        # elsewhere, answers for k = 4
        rng = random.Random(42)
        answers = set()
        for _ in range(120):
            k = rng.randint(1, 4)
            cl = mixed_instance(rng, rng.randint(max(k, 2), 10), rng.randint(1, 3), k)
            want = (brute_explanation(cl, 0) if k <= 3 else exact_explain(cl, 0)) is not None
            assert check_explainable(cl) == want
            answers.add(want)
        assert answers == {True, False}

    def test_check_matches_full_repair(self):
        # the check, which runs on the s = 0 kernel, answers as the whole
        # repair on all points does: up to n = 200, and where the clusters'
        # extremes tie (coordinates in {0, 1}, zeros of either sign, one
        # point in two clusters) or k = 1
        rng = random.Random(43)
        cases = []
        for _ in range(40):
            k, hi = rng.randint(2, 5), rng.choice((3, 9, 30))
            cl = mixed_instance(rng, rng.randint(k, 200), rng.randint(1, 3), k, hi=hi)
            cases.append(("mixed", cl))
        for _ in range(40):
            k = rng.randint(2, 4)
            cl = mixed_instance(rng, rng.randint(k, 16), rng.randint(1, 3), k, hi=1)
            cases.append(("0/1", cl))
            pts = tuple(tuple(rng.choice((-0.0, 0.0)) if c == 0 else c for c in p)
                        for p in cl.ds.points)
            cases.append(("signed zeros", Clustering(Dataset(pts), cl.labels, k)))
            shared = Dataset(cl.ds.points + cl.ds.points[:1])
            cases.append(("shared", Clustering(shared, cl.labels + (cl.labels[0] % k + 1,), k)))
        for _ in range(10):
            n, d, hi = rng.randint(1, 20), rng.randint(1, 3), rng.choice((1, 9))
            cases.append(("k = 1", random_clustering(rng, n, d, 1, hi=hi)))
        answers: dict[str, set[bool]] = {}
        for kind, cl in cases:
            want = greedy_explain(cl).removed_count == 0
            assert check_explainable(cl) == want, kind
            answers.setdefault(kind, set()).add(want)
        both = {True, False}
        assert answers == {"mixed": both, "0/1": both, "signed zeros": both,
                           "shared": {False}, "k = 1": {True}}

    def test_greedy_and_check_at_any_depth(self):
        # greedy's tree here is 1,199 levels deep, past the recursion limit;
        # 1,200 keeps the test short, as a caterpillar's re-sorts are quadratic
        cl = neighbour_pairs(1200)
        assert check_explainable(cl)
        res = greedy_explain(cl)
        assert res.removed == frozenset()
        assert res.tree.leaf_labels() == list(range(1, 1201))

    def test_greedy_bound_against_opt(self):
        rng = random.Random(22)
        for _ in range(40):
            cl = random_clustering(rng, rng.randint(3, 9), rng.randint(1, 2), rng.randint(2, 3))
            opt, _ = opt_explain(cl)
            g = greedy_explain(cl)
            assert g.removed_count <= (cl.k - 1) * opt
            assert survivors_match(cl, g)


class TestExactExplain:
    def test_xor_budgets(self):
        cl = xor_instance()
        assert exact_explain(cl, 0) is None
        assert exact_explain(cl, 1) is None  # oracle-verified: minimum is 2
        res = exact_explain(cl, 2)
        assert res is not None and res.removed_count == 2
        assert survivors_match(cl, res)

    def test_interleaved_needs_one_removal(self):
        ds = Dataset.from_rows([(0,), (2,), (1,), (3,)])
        cl = Clustering(ds, (1, 1, 2, 2), 2)
        opt, res = opt_explain(cl)
        assert opt == 1
        assert res.removed_count == 1

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            exact_explain(separated_instance(), -1)

    def test_huge_budget_always_feasible(self):
        rng = random.Random(23)
        for _ in range(10):
            cl = random_clustering(rng, rng.randint(2, 8), 2, 2)
            assert exact_explain(cl, cl.ds.n - 1) is not None

    def test_matches_brute_oracle(self):
        rng = random.Random(24)
        for _ in range(60):
            cl = mixed_instance(rng, rng.randint(3, 9), rng.randint(1, 3), rng.randint(2, 3))
            for s in range(4):
                b = brute_explanation(cl, s)
                e = exact_explain(cl, s)
                assert (b is None) == (e is None)
                if b is not None and e is not None:
                    assert len(e.removed) <= s
                    assert survivors_match(cl, e)

    def test_cuts_with_an_empty_side_are_skipped(self):
        # the second coordinate is constant, so its one canonical cut keeps
        # every point on the left; a DP state keyed by members that took it
        # would map to itself and recurse without end
        xs = (0, 0, 1, 1, 2, 2, 3, 3, 4, 4)
        labels = (1, 1, 2, 1, 2, 2, 3, 2, 3, 3)
        flat = Clustering(Dataset.from_rows([(x, 5) for x in xs]), labels, 3)
        line = Clustering(Dataset.from_rows([(x,) for x in xs]), labels, 3)
        for s in range(4):
            e = exact_explain(flat, s)
            e1 = exact_explain(line, s)
            b = brute_explanation(flat, s)
            assert (e is None) == (e1 is None) == (b is None) == (s < 2)
            if e is not None:
                assert e.removed == e1.removed
                assert len(e.removed) == len(b[0]) == 2
                assert survivors_match(flat, e)

    def test_monotone_in_budget(self):
        rng = random.Random(25)
        for _ in range(20):
            cl = random_clustering(rng, rng.randint(3, 8), 2, 2)
            feasible = [exact_explain(cl, s) is not None for s in range(cl.ds.n)]
            assert feasible == sorted(feasible)

    def test_work_pin(self):
        # states the DP memoizes on an n = 18 input; both prunes show here
        # (without the split-cluster check: 7,917 / 8,106 / 8,752; without
        # lost in the saturation: 973 / 5,551 / 9,694). An admissible bound
        # on the removals still to come is expected to lower these counts.
        cl = gen_uniform(3, 6, 2, 1)
        for s, states in ((1, 888), (2, 4406), (4, 8752)):
            solver = _ExactSolver(cl, s)
            solver.solve()
            assert len(solver.memo) == states

    def test_kept_clusters_meet_their_box(self):
        # every cluster a state keeps has a member in its box, so a cut
        # hands each kept cluster to a side that holds some of it
        rng = random.Random(31)
        for _ in range(200):
            k = rng.randint(2, 4)
            cl = mixed_instance(rng, rng.randint(k, 10), rng.randint(1, 3), k)
            for s in (0, 1, 3):
                solver = _ExactSolver(cl, s)
                solver.solve()
                for bm, smask in solver.memo:
                    for lab in range(1, cl.k + 1):
                        if smask >> (lab - 1) & 1:
                            assert solver.cmask[lab] & bm

    def test_memo_holds_each_states_removals(self):
        # a state's entry is the mask of its box members that its best
        # subtree removes (None when it saturates); the root's entry is the
        # removal set exact_explain returns
        rng = random.Random(31)
        for _ in range(200):
            k = rng.randint(2, 4)
            cl = mixed_instance(rng, rng.randint(k, 10), rng.randint(1, 3), k)
            for s in (0, 1, 3):
                solver = _ExactSolver(cl, s)
                root = solver.solve()
                for (bm, smask), gone in solver.memo.items():
                    if gone is None:
                        continue
                    assert gone & ~bm == 0
                    kept = [lab for lab in range(1, cl.k + 1) if smask >> (lab - 1) & 1]
                    survivors = bm & ~gone
                    assert all(any(solver.cmask[lab] >> i & 1 for lab in kept)
                               for i in range(cl.ds.n) if survivors >> i & 1)
                    lost = sum((solver.cmask[lab] & ~bm).bit_count() for lab in kept)
                    assert gone.bit_count() + lost <= s
                result = exact_explain(cl, s)
                assert (result is None) == (root is None)
                if result is not None:
                    assert result.removed == {i for i in range(cl.ds.n) if root >> i & 1}

    def test_guard_rail_and_force(self):
        rng = random.Random(26)
        cl = random_clustering(rng, 31, 1, 2)
        with pytest.raises(LimitExceededError):
            exact_explain(cl, 0)
        kern, _ = kernelize(cl, 0)
        assert kern.ds.n <= 31  # kernel route works without force


def tie_heavy_instance(seed: int) -> Clustering:
    """Ten points in {0, 1, 2}^3, four of them copies, with shuffled labels."""
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    base = [tuple(float(rng.randint(0, 2)) for _ in range(3)) for _ in range(6)]
    pts = base + [rng.choice(base) for _ in range(4)]
    labels = [(i % k) + 1 for i in range(len(pts))]
    rng.shuffle(labels)
    return Clustering(Dataset(tuple(pts)), tuple(labels), k)


class TestExactGolden:
    """Pins which of several optimal removal sets the exact DP returns.

    Each input has between 2 and 10 optimal removal sets (counted by
    enumeration); the DP returns the first it finds in its cut order, and
    letting an equal value replace the incumbent changes every one of them.
    """

    EXPECTED = {
        0: (3, {0, 6, 8, 9}),
        4: (2, {2, 5, 7, 9}),
        5: (3, {0, 1, 5, 6, 7}),
        6: (2, {3, 6, 7, 9}),
        12: (3, {1, 3, 4, 6, 7}),
        24: (3, {3, 6, 7, 9}),
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_removal_sets(self, seed):
        k, removed = self.EXPECTED[seed]
        cl = tie_heavy_instance(seed)
        assert cl.k == k
        opt, res = opt_explain(cl)
        assert (opt, set(res.removed)) == (len(removed), removed)
        assert set(exact_explain(cl, opt).removed) == removed
        assert exact_explain(cl, opt - 1) is None
        assert survivors_match(cl, res)


class TestOptExplain:
    def test_explainable_gives_zero(self):
        assert opt_explain(separated_instance())[0] == 0

    def test_xor_opt_is_two(self):
        opt, res = opt_explain(xor_instance())
        assert opt == 2 and res.removed_count == 2

    def test_subset_monotonicity(self):
        rng = random.Random(27)
        for _ in range(10):
            cl = random_clustering(rng, 8, 2, 2)
            full_opt, _ = opt_explain(cl)
            keep = sorted(rng.sample(range(8), 6))
            labels = [cl.labels[i] for i in keep]
            if len(set(labels)) < cl.k:
                continue
            sub = Clustering(Dataset(tuple(cl.ds.points[i] for i in keep)), tuple(labels), cl.k)
            assert opt_explain(sub)[0] <= full_opt


class TestKernelize:
    def test_one_dim_single_cluster(self):
        ds = Dataset.from_rows([(float(i),) for i in range(10)])
        cl = Clustering(ds, (1,) * 10, 1)
        kern, mapping = kernelize(cl, 0)
        assert kern.ds.points == ((1.0,), (2.0,))
        assert mapping == {0: 0, 1: 9}

    def test_size_and_coordinate_bounds(self):
        rng = random.Random(28)
        for _ in range(20):
            n, d, k = rng.randint(5, 60), rng.randint(1, 3), rng.randint(1, 3)
            s = rng.randint(0, 3)
            cl = random_clustering(rng, n, d, k, hi=20)
            kern, mapping = kernelize(cl, s)
            r = 2 * (s + 1) * d * k
            assert kern.ds.n <= r
            for p in kern.ds.points:
                assert all(c == int(c) and 1 <= c <= kern.ds.n for c in p)
            # mapping preserves labels
            for new_id, old_id in mapping.items():
                assert kern.labels[new_id] == cl.labels[old_id]

    def test_small_instance_kept_whole(self):
        ds = Dataset.from_rows([(0.0,), (7.5,), (9.0,)])
        cl = Clustering(ds, (1, 2, 2), 2)
        kern, _ = kernelize(cl, 1)
        assert kern.ds.n == 3
        assert kern.ds.points == ((1.0,), (2.0,), (3.0,))

    def test_preserves_answer_per_budget(self):
        rng = random.Random(29)
        for _ in range(15):
            cl = mixed_instance(rng, rng.randint(3, 10), rng.randint(1, 2), rng.randint(2, 3))
            for s in range(0, cl.ds.n + 1):
                kern, _ = kernelize(cl, s)
                assert (exact_explain(cl, s) is None) == (exact_explain(kern, s) is None)
