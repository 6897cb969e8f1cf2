import random

import pytest

from treeclust import (
    CostKind,
    Dataset,
    LimitExceededError,
    brute_explainable,
    brute_unconstrained,
    cluster_cost,
    lloyd_baseline,
    solve_approx,
    solve_branching,
    solve_dp,
    tree_evaluate,
    tree_to_json_obj,
    validate_tree,
)
from helpers import random_points

BOTH_KINDS = [CostKind.MEANS, CostKind.MEDIANS]


def gapped_1d():
    return Dataset.from_rows([(0,), (1,), (10,), (11,)])


def result_is_consistent(res, ds):
    assert validate_tree(res.tree, ds.d, len(res.clusters)) == []
    assert tree_evaluate(res.tree, ds) == res.clusters
    assert all(ids for ids in res.clusters.values())
    total = sum(
        cluster_cost([ds.points[i] for i in ids], res.kind)
        for ids in res.clusters.values()
    )
    assert total == pytest.approx(res.cost)


class TestSolveBranching:
    def test_singletons_cost_zero(self):
        ds = Dataset.from_rows([(0,), (3,), (7,)])
        res = solve_branching(ds, 3, CostKind.MEANS)
        assert res.cost == 0.0
        result_is_consistent(res, ds)

    def test_gapped_means(self):
        res = solve_branching(gapped_1d(), 2, CostKind.MEANS)
        assert res.cost == pytest.approx(1.0)
        assert sorted(map(sorted, res.clusters.values())) == [[0, 1], [2, 3]]

    def test_three_point_medians(self):
        ds = Dataset.from_rows([(0,), (4,), (5,)])
        res = solve_branching(ds, 2, CostKind.MEDIANS)
        assert res.cost == pytest.approx(1.0)
        assert sorted(map(sorted, res.clusters.values())) == [[0], [1, 2]]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            solve_branching(gapped_1d(), 5, CostKind.MEANS)
        with pytest.raises(ValueError):
            solve_branching(gapped_1d(), 0, CostKind.MEANS)

    @pytest.mark.parametrize("solver", [solve_branching, solve_dp])
    def test_k_above_distinct_points(self, solver):
        ds = Dataset.from_rows([(0, 1), (2, 2), (0, 1), (2, 2), (0, 1)])
        with pytest.raises(ValueError, match="too few distinct points"):
            solver(ds, 3, CostKind.MEANS)
        assert solver(ds, 2, CostKind.MEANS).cost == 0.0

    def test_guard_rail(self):
        ds = Dataset.from_rows([(float(i),) for i in range(12)])
        with pytest.raises(LimitExceededError):
            solve_branching(ds, 9, CostKind.MEANS)
        res = solve_branching(ds, 9, CostKind.MEANS, force=True)
        assert res.cost >= 0.0


class TestSolveDp:
    def test_k1_is_whole_cost(self):
        ds = gapped_1d()
        for kind in BOTH_KINDS:
            res = solve_dp(ds, 1, kind)
            assert res.cost == pytest.approx(cluster_cost(list(ds.points), kind))

    def test_grid_four_clusters_cost_zero(self):
        ds = Dataset.from_rows([(0, 0), (0, 1), (1, 0), (1, 1)])
        res = solve_dp(ds, 4, CostKind.MEANS)
        assert res.cost == 0.0
        result_is_consistent(res, ds)

    def test_guard_rail(self):
        ds = Dataset(random_points(random.Random(0), 41, 1))
        with pytest.raises(LimitExceededError):
            solve_dp(ds, 2, CostKind.MEANS)

    def test_agrees_with_branching_and_oracle(self):
        rng = random.Random(31)
        for _ in range(30):
            n, d, k = rng.randint(2, 8), rng.randint(1, 2), rng.randint(1, 3)
            if k > n:
                continue
            ds = Dataset(random_points(rng, n, d))
            for kind in BOTH_KINDS:
                try:
                    oracle = brute_explainable(ds, k, kind)
                except ValueError:
                    with pytest.raises(ValueError):
                        solve_dp(ds, k, kind)
                    continue
                rb = solve_branching(ds, k, kind)
                rd = solve_dp(ds, k, kind)
                assert rb.cost == pytest.approx(oracle.cost, rel=1e-9, abs=1e-12)
                assert rd.cost == pytest.approx(oracle.cost, rel=1e-9, abs=1e-12)
                result_is_consistent(rb, ds)
                result_is_consistent(rd, ds)
                assert rd.cost >= brute_unconstrained(ds, k, kind) - 1e-9

    def test_monotone_in_k(self):
        rng = random.Random(32)
        for _ in range(10):
            ds = Dataset(random_points(rng, rng.randint(4, 8), 2))
            for kind in BOTH_KINDS:
                costs = []
                for k in (1, 2, 3):
                    try:
                        costs.append(solve_dp(ds, k, kind).cost)
                    except ValueError:
                        break
                assert costs == sorted(costs, reverse=True)

    def test_deterministic(self):
        ds = Dataset(random_points(random.Random(33), 10, 2))
        a = solve_dp(ds, 3, CostKind.MEANS)
        b = solve_dp(ds, 3, CostKind.MEANS)
        assert a.tree == b.tree and a.cost == b.cost


def _leaf(label):
    return {"leaf": label}


def _node(dim, theta, left, right):
    return {"dim": dim, "theta": theta, "left": left, "right": right}


# Tie-heavy integer grids (coordinates 0..3, n <= 12) with the trees and
# costs that both exact solvers returned before they shared one search:
# (seed, n, d, k, kind) -> (cost, tree JSON).
GOLDEN = {
    (101, 10, 2, 3, "means"): (
        5.733333333333334,
        _node(2, 1.0, _node(1, 2.0, _leaf(1), _leaf(2)), _leaf(3)),
    ),
    (102, 12, 2, 3, "medians"): (
        8.0,
        _node(1, 1.0, _node(2, 1.0, _leaf(1), _leaf(2)), _leaf(3)),
    ),
    (103, 9, 1, 2, "means"): (1.5499999999999998, _node(1, 1.0, _leaf(1), _leaf(2))),
    (104, 12, 2, 2, "medians"): (10.0, _node(2, 0.0, _leaf(1), _leaf(2))),
    (105, 11, 3, 3, "means"): (
        10.933333333333334,
        _node(3, 1.0, _leaf(1), _node(2, 1.0, _leaf(2), _leaf(3))),
    ),
    (106, 8, 2, 3, "medians"): (
        3.0,
        _node(1, 1.0, _leaf(1), _node(2, 0.0, _leaf(2), _leaf(3))),
    ),
}


class TestGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    @pytest.mark.parametrize("solver", [solve_branching, solve_dp])
    def test_exact_solvers_pinned(self, solver, case):
        seed, n, d, k, kind = case
        ds = Dataset(random_points(random.Random(seed), n, d, hi=3))
        res = solver(ds, k, CostKind(kind))
        cost, tree = GOLDEN[case]
        assert res.cost == cost
        assert tree_to_json_obj(res.tree) == {"k": k, "tree": tree}

    def test_approx_pinned(self):
        # several grid trees reach cost 9; the first one found is kept
        ds = Dataset(random_points(random.Random(108), 12, 2, hi=3))
        res = solve_approx(ds, 2, CostKind.MEDIANS, 0.4)
        assert res.cost == 9.0
        assert tree_to_json_obj(res.tree) == {"k": 2, "tree": _node(1, 1.0, _leaf(1), _leaf(2))}
        assert res.removed == frozenset({4, 5})
        assert res.rank_grid == ((1.0, 1.0, 1.0, 2.0, 3.0, 3.0), (0.0, 0.0, 0.0, 1.0, 2.0, 3.0))


class TestSolveApprox:
    def test_k1_keeps_everything(self):
        ds = gapped_1d()
        res = solve_approx(ds, 1, CostKind.MEANS, 0.5)
        assert res.removed == frozenset()
        assert res.cost == pytest.approx(cluster_cost(list(ds.points), CostKind.MEANS))

    def test_nprime_zero_matches_branching(self):
        ds = gapped_1d()  # n=4, k=2, eps=0.3 -> n' = 0
        res = solve_approx(ds, 2, CostKind.MEANS, 0.3)
        assert res.removed == frozenset()
        assert res.cost == solve_branching(ds, 2, CostKind.MEANS).cost

    def test_epsilon_validation(self):
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                solve_approx(gapped_1d(), 2, CostKind.MEANS, eps)

    def test_bounds_against_dp(self):
        rng = random.Random(34)
        for _ in range(15):
            n, d, k = rng.randint(4, 22), rng.randint(1, 2), rng.randint(1, 3)
            if k > n:
                continue
            ds = Dataset(random_points(rng, n, d, hi=9))
            for kind in BOTH_KINDS:
                try:
                    opt = solve_dp(ds, k, kind)
                except ValueError:
                    continue
                for eps in (0.1, 0.3, 0.5):
                    res = solve_approx(ds, k, kind, eps)
                    assert len(res.removed) <= eps * n
                    assert len(res.kept) >= (1 - eps) * n
                    assert res.cost <= opt.cost + 1e-9 * max(1.0, abs(opt.cost))

    def test_grid_thresholds_used(self):
        rng = random.Random(35)
        ds = Dataset(random_points(rng, 24, 2, hi=9))
        res = solve_approx(ds, 2, CostKind.MEANS, 0.5)
        allowed = {
            (dim + 1, theta)
            for dim, ts in enumerate(res.rank_grid)
            for theta in ts
        }
        if allowed:  # non-fallback path: every cut lies on the grid

            def walk(node):
                if hasattr(node, "cut"):
                    assert (node.cut.dim, node.cut.theta) in allowed
                    walk(node.left)
                    walk(node.right)

            walk(res.tree.root)


class TestLloydBaseline:
    def test_n_equals_k_zero_cost(self):
        ds = Dataset.from_rows([(0,), (5,), (9,)])
        res = lloyd_baseline(ds, 3, CostKind.MEANS, seed=1)
        assert res.cost == 0.0

    def test_gapped_converges_to_optimum(self):
        for seed in range(5):
            res = lloyd_baseline(gapped_1d(), 2, CostKind.MEANS, seed=seed)
            assert res.cost == pytest.approx(1.0)

    def test_deterministic_per_seed(self):
        ds = Dataset(random_points(random.Random(36), 20, 2))
        a = lloyd_baseline(ds, 3, CostKind.MEDIANS, seed=7)
        b = lloyd_baseline(ds, 3, CostKind.MEDIANS, seed=7)
        assert a == b

    def test_validates_args(self):
        with pytest.raises(ValueError):
            lloyd_baseline(gapped_1d(), 0, CostKind.MEANS, seed=0)
        with pytest.raises(ValueError):
            lloyd_baseline(gapped_1d(), 2, CostKind.MEANS, seed=0, iters=0)
