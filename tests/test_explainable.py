import gc
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate
from operator import or_

import pytest

from treeclust import (
    CostKind,
    Dataset,
    Leaf,
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
from treeclust import explainable
from treeclust.core import _prefix_masks, _splits
from helpers import (
    _rank_grid,
    random_points,
    reference_lloyd,
    reference_solve_approx,
    reference_split_search,
    tie_heavy_points,
)

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

    @pytest.mark.parametrize("solver", [solve_branching, solve_dp])
    def test_overflowing_leaves_leave_the_finite_optimum(self, solver):
        # a leaf holding 0 and a 1e200 pair costs about 1e400, and the search
        # prices some such leaf before it reaches the optimum
        ds = Dataset.from_rows([(-1e200,), (-1e200,), (1e200,), (1e200,), (0,)])
        res = solver(ds, 3, CostKind.MEANS)
        assert res.cost == 0.0
        assert sorted(map(sorted, res.clusters.values())) == [[0, 1], [2, 3], [4]]
        # here a two-leaf sweep meets the side (1, 1e200)
        assert solver(Dataset.from_rows([(0,), (1,), (1e200,)]), 2, CostKind.MEANS).cost == 0.5
        with pytest.raises(OverflowError):
            solver(ds, 2, CostKind.MEANS)  # every 2-clustering merges two groups
        with pytest.raises(OverflowError):
            solver(ds, 1, CostKind.MEANS)  # the one leaf holds every group
        four = Dataset(ds.points[:4] + ((0,), (0,), (2e200,), (2e200,)))
        with pytest.raises(OverflowError):
            solver(four, 3, CostKind.MEANS)  # every 3-clustering merges two groups
        with pytest.raises(ValueError, match="too few distinct points"):
            solver(Dataset(ds.points[:4]), 3, CostKind.MEANS)

    @pytest.mark.parametrize(
        "solver", [solve_branching, solve_dp, partial(solve_approx, epsilon=0.3),
                   partial(solve_approx, epsilon=0.5)],
        ids=["solve_branching", "solve_dp", "solve_approx-0.3", "solve_approx-0.5"])
    def test_overflowing_sweeps_keep_the_sides_they_priced(self, solver, monkeypatch):
        # with a tiny cap, a sweep that overflows must not drop the sides an
        # earlier sweep of the same two-leaf state stored; and every side a
        # sweep prices, in states with any quota, is inf exactly where
        # pricing it alone with ``leaf`` gives inf
        cases = [(Dataset.from_rows([(0,), (1,), (1e200,)]), 2)]
        cases += [(Dataset(pts), k) for pts in _overflowing_inputs() for k in (2, 3, 4)]
        # pairs 1e200 apart: fewer leaves than pairs merge two of them, and overflow
        cases += [(Dataset.from_rows([(g * 1e200,) for g in range(m) for _ in range(2)]), k)
                  for m in (4, 5) for k in (m - 1, m)]

        def results():
            out = []
            for ds, k in cases:
                try:
                    res = solver(ds, k, CostKind.MEANS)
                except (ValueError, OverflowError) as exc:
                    out.append(type(exc))
                else:
                    out.append((repr(res.cost), json.dumps(tree_to_json_obj(res.tree)),
                                sorted(getattr(res, "removed", ()))))
            return out

        def alone(self, ids, dim, lsizes, rsizes):
            upto = list(accumulate((1 << i for i in ids), or_, initial=0))
            return ([self.leaf(upto[m]) for m in lsizes],
                    [self.leaf(upto[-1] ^ upto[len(ids) - r]) for r in rsizes])

        want = results()
        # every tree with fewer leaves than pairs has a leaf that costs inf
        assert [res == OverflowError for res in want[-4:]] == [True, False, True, False]
        for cap in (0, 1, 8):
            monkeypatch.setattr(explainable, "_KNOWN_MAX", cap)
            assert results() == want
        monkeypatch.setattr(explainable._LeafCosts, "sides", alone)
        assert results() == want

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
# costs that both exact solvers returned before they shared one search
# (costs since exactly rounded): (seed, n, d, k, kind) -> (cost, tree JSON).
GOLDEN = {
    (101, 10, 2, 3, "means"): (
        5.733333333333333,
        _node(2, 1.0, _node(1, 2.0, _leaf(1), _leaf(2)), _leaf(3)),
    ),
    (102, 12, 2, 3, "medians"): (
        8.0,
        _node(1, 1.0, _node(2, 1.0, _leaf(1), _leaf(2)), _leaf(3)),
    ),
    (103, 9, 1, 2, "means"): (1.55, _node(1, 1.0, _leaf(1), _leaf(2))),
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


def _exact(pts, kind):
    """The cost of ``pts`` as an exact Fraction, from its definition."""
    total = Fraction(0)
    for col in zip(*pts):
        xs = [Fraction(c) for c in col]
        if kind is CostKind.MEANS:
            mean = sum(xs) / len(xs)
            total += sum((x - mean) ** 2 for x in xs)
        else:
            med = sorted(xs)[(len(xs) - 1) // 2]
            total += sum(abs(x - med) for x in xs)
    return total


def _exactness_inputs():
    """Offsets that dwarf the spread, tiny scales, signed zeros, duplicates,
    int coordinates (as Dataset(...) keeps them without from_rows), ints
    beyond 2**53 and floats whose squares dwarf 2**800."""
    rng = random.Random(41)
    variants = [(0.0, 1.0), (1e6, 1.0), (1e6, 1e-3), (0.0, 1e-6), (-7.25, 0.3)]
    for case in range(60):
        offset, scale = variants[case % len(variants)]
        n, d = rng.randint(2, 12), rng.randint(1, 3)
        if case % 6 == 5:
            pts = tuple(tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(n))
        else:
            pts = tuple(
                tuple(offset + scale * rng.choice([0.0, -0.0, rng.random(), 1.0, 2.0])
                      for _ in range(d))
                for _ in range(n)
            )
        yield pts + pts[: rng.randint(0, 3)]
    big = 2.0**450
    yield ((0.5,), (2**60 + 1,), (3,), (2**60,))
    yield ((1.0,), (big,), (2.0,), (-big,))


def _overflowing_inputs():
    """test_overflowing_sweeps_keep_the_sides_they_priced's tie-heavy
    inputs, each positive coordinate scaled by 1e199, so that many leaf
    costs exceed the largest float."""
    rng = random.Random(47)
    for _ in range(6):
        pts = tie_heavy_points(rng, rng.randint(5, 10), rng.randint(1, 2))
        yield tuple(tuple(x * 1e199 if x > 0 else x for x in p) for p in pts)


class TestExactCosts:
    """Every cost is the float nearest the exact cost, whichever path
    prices it; the exact cost is computed here with fractions."""

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_cluster_cost(self, kind):
        rng = random.Random(42)
        for pts in _exactness_inputs():
            for _ in range(5):
                part = rng.sample(pts, rng.randint(1, len(pts)))
                assert cluster_cost(part, kind) == float(_exact(part, kind)), part

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_every_solver_leaf(self, kind, monkeypatch):
        priced = []  # (member ids, cost) of every leaf a solver priced
        real_sides, real_exact = explainable._LeafCosts.sides, explainable._exact_cost

        def sides(self, ids, dim, lsizes, rsizes):
            lefts, rights = real_sides(self, ids, dim, lsizes, rsizes)
            priced.extend((ids[:m], cost) for m, cost in zip(lsizes, lefts))
            priced.extend((ids[len(ids) - r:], cost) for r, cost in zip(rsizes, rights))
            return lefts, rights

        def exact(cols, ids, scale, kind):
            cost = real_exact(cols, ids, scale, kind)
            priced.append((list(ids), cost))
            return cost

        counts = Counter()

        def check(pts):
            for ids, cost in priced:
                try:
                    want = float(_exact([pts[i] for i in ids], kind))
                except OverflowError:  # beyond the largest float
                    want = math.inf
                assert cost == want, (pts, ids)
                counts["inf"] += cost == math.inf

        monkeypatch.setattr(explainable._LeafCosts, "sides", sides)
        monkeypatch.setattr(explainable, "_exact_cost", exact)
        for pts in [*_exactness_inputs(), *_overflowing_inputs()]:
            ds = Dataset(pts)
            for k in (1, 2, 3):
                priced.clear()
                try:
                    res = solve_dp(ds, k, kind, force=True)
                    cost, node = reference_split_search(ds, k, kind)
                except ValueError:
                    continue
                except OverflowError:  # some leaf overflows: no reference
                    pass
                else:
                    assert repr(res.cost) == repr(cost)
                    assert res.tree == explainable._finish(node, ds, cost, kind).tree
                counts["search"] += len(priced)
                check(pts)
                if k > 1 and ds.n >= 8:
                    priced.clear()
                    try:
                        solve_approx(ds, k, kind, 0.5)
                    except OverflowError:
                        pass
                    counts["approx"] += len(priced)
                    check(pts)
        assert counts["search"] > 2000 and counts["approx"] > 1500, counts
        # 76 sweep costs overflow (MEANS); the scaled inputs' MEDIANS costs
        # stay below 1e202
        assert counts["inf"] > 50 or kind is CostKind.MEDIANS, counts


def test_running_l1_matches_sorted_halves():
    """_running_l1 against the L1 cost of each prefix from its sorted
    halves: the top floor(m/2) values' sum minus the bottom floor(m/2)'s."""
    def brute(vals, sizes):
        out = []
        for m in sizes:
            s = sorted(vals[:m])
            out.append(sum(s[m - m // 2:]) - sum(s[:m // 2]))
        return out

    rng = random.Random(18)
    assert explainable._running_l1([], []) == []
    assert explainable._running_l1([], [0]) == [0]
    for t in range(600):
        n = rng.randint(1, 25)
        hi = (3, 100, 2**62)[t % 3]  # repeats, spread, above 2^60
        vals = [rng.randint(-hi, hi) for _ in range(n)]
        dense = list(range(n + 1))
        sparse = sorted(rng.sample(range(n + 1), rng.randint(0, min(3, n + 1))))
        for sizes in (dense, sparse, []):
            assert explainable._running_l1(vals, sizes) == brute(vals, sizes), (vals, sizes)


def _count_two_leaf_states(monkeypatch):
    """A Counter whose "states" counts the sides calls of dimension 1 the
    split search makes from now on: one per two-leaf state it prices, plus
    one per state with three or more leaves left that prices a cut in
    dimension 1 (its sweep)."""
    calls = Counter()
    real = explainable._LeafCosts.sides

    def sides(self, ids, dim, lsizes, rsizes):
        calls["states"] += dim == 1
        return real(self, ids, dim, lsizes, rsizes)

    monkeypatch.setattr(explainable._LeafCosts, "sides", sides)
    return calls


def _matches_reference(cases, solver):
    """Assert that ``solver`` gives the cost repr, tree JSON and clusters of
    reference_split_search on each (points, k) case in both kinds, or the
    same ValueError; return the number of trees compared."""
    trees = 0
    for pts, k in cases:
        ds = Dataset(pts)
        for kind in BOTH_KINDS:
            try:
                cost, node = reference_split_search(ds, k, kind)
            except ValueError:
                with pytest.raises(ValueError, match="too few distinct points"):
                    solver(ds, k, kind, force=True)
                continue
            want = explainable._finish(node, ds, cost, kind)
            got = solver(ds, k, kind, force=True)
            assert repr(got.cost) == repr(want.cost), (pts, k, kind)
            assert json.dumps(tree_to_json_obj(got.tree)) == json.dumps(
                tree_to_json_obj(want.tree)), (pts, k, kind)
            assert got.clusters == want.clusters
            trees += 1
    return trees


class TestSplitSearch:
    def test_matches_per_leaf_pricing(self):
        """Cost repr, tree JSON and clusters equal the per-leaf reference on
        tie-heavy inputs: offsets, scales, duplicates, signed zeros, ints."""
        rng = random.Random(43)
        cases = []
        for _ in range(320):
            n, d = rng.randint(2, 26), rng.randint(1, 3)
            k = rng.randint(1, min(n, 5 if n <= 14 else 3))
            cases.append((tie_heavy_points(rng, n, d), k))
        assert _matches_reference(cases, solve_dp) >= 500

    def test_best_first_matches_reference(self):
        """Quota >= 3 states: cost repr, tree JSON and clusters equal the
        reference loop's, on tie-heavy inputs and on mirrored and underflowing
        ones whose equal totals exercise the first-minimum rule."""
        rng = random.Random(48)
        cases = []
        for _ in range(240):
            k = rng.randint(3, 6)
            n = rng.randint(k, 16 if k >= 5 else 24)
            cases.append((tie_heavy_points(rng, n, rng.randint(1, 3)), k))
        for _ in range(40):
            cases.append((tie_heavy_points(rng, rng.randint(20, 30), rng.randint(1, 3)), 4))
        for _ in range(40):
            half = tie_heavy_points(rng, rng.randint(3, 8), rng.randint(1, 2))
            if len(half[0]) == 1:  # mirror about 0
                pts = half + tuple((-x,) for (x,) in half)
            else:  # mirror about the diagonal
                pts = half + tuple((y, x) for x, y in half)
            cases.append((pts, rng.randint(3, 5)))
        for _ in range(40):
            # groups a few ulps wide near 1e-150, whose costs round to 0:
            # many cuts tie at total 0, so blocks tie with the incumbent
            pts = []
            for _ in range(rng.randint(5, 10)):
                x = rng.randint(0, 3) * 1e-150
                for _ in range(rng.randint(0, 3)):
                    x = math.nextafter(x, math.inf)
                pts.append((x,))
            cases.append((tuple(pts), rng.randint(3, 4)))
        assert _matches_reference(cases, solve_branching) >= 450

    def test_side_optima_are_monotone_along_runs(self):
        """Along each dimension's feasible cuts of a state, the optimum of
        the left side with s1 leaves never decreases and that of the right
        side with s2 never increases, up to the search's slack."""
        rng = random.Random(49)
        checked = 0
        for t in range(80):
            n, d = rng.randint(8, 16), rng.randint(1, 2)
            pts = tie_heavy_points(rng, n, d) if t % 2 else random_points(rng, n, d, hi=9)
            ds = Dataset(pts)
            # a random state: the members of one side of a random cut, or all
            prefix = _prefix_masks(pts)
            mask = (1 << ds.n) - 1
            splits = list(_splits(mask, prefix))
            if splits and rng.random() < 0.5:
                _, lmask, _ = rng.choice(splits)
                mask = rng.choice([lmask, mask ^ lmask])
            s = rng.randint(3, 4)
            slack = 1 + (4 * s + 8) * 2.0 ** -53
            kind = rng.choice(BOTH_KINDS)

            def opt(side, q):
                sub = [pts[i] for i in range(ds.n) if side >> i & 1]
                if len(set(sub)) < q:
                    return None  # infeasible: fewer distinct points than leaves
                return reference_split_search(Dataset(tuple(sub)), q, kind)[0]

            for dim in range(1, ds.d + 1):
                run = [lmask for dm, lmask, _ in _splits(mask, prefix) if dm == dim]
                for s1 in range(1, s):
                    sides = [(opt(lm, s1), opt(mask ^ lm, s - s1)) for lm in run]
                    sides = [(f, g) for f, g in sides if f is not None and g is not None]
                    for (f0, g0), (f1, g1) in zip(sides, sides[1:]):
                        assert f0 <= f1 * slack and g1 <= g0 * slack, (pts, mask, s1)
                        checked += 1
        assert checked >= 300

    def test_dropping_the_map_keeps_results(self, monkeypatch):
        monkeypatch.setattr(explainable, "_KNOWN_MAX", 8)
        rng = random.Random(46)
        cases = [(tie_heavy_points(rng, rng.randint(6, 20), rng.randint(1, 3)),
                  rng.randint(2, 5)) for _ in range(100)]
        for solver in (solve_dp, solve_branching):
            assert _matches_reference(cases, solver) >= 170

    def test_two_leaf_layer_prices_few_leaves(self, monkeypatch):
        calls = _count_two_leaf_states(monkeypatch)
        real_exact = explainable._exact_cost

        def exact(*args):
            calls["leaf"] += 1
            return real_exact(*args)

        monkeypatch.setattr(explainable, "_exact_cost", exact)
        ds = Dataset(random_points(random.Random(44), 120, 2, hi=10**6))
        solve_branching(ds, 3, CostKind.MEDIANS)
        # 92 two-leaf states and the root's sweep; the other sides of the
        # root's priced cuts read their costs off that sweep (they were 92
        # single leaves), and pricing each side of each two-leaf state on its
        # own takes 28,856 single leaves
        assert calls["states"] < 150 and calls["leaf"] == 0, calls

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_best_first_prices_few_two_leaf_states(self, kind, monkeypatch):
        calls = _count_two_leaf_states(monkeypatch)
        ds = Dataset(random_points(random.Random(5), 200, 2, hi=10**6))
        solve_branching(ds, 3, kind)
        # 55 sides calls (MEANS) and 106 (MEDIANS): 54 and 105 two-leaf
        # states and the root's sweep; pricing every cut of the root takes
        # 792 two-leaf states
        assert calls["states"] < 250, calls

    def test_quota_three_states_price_few_two_leaf_states(self, monkeypatch):
        calls = _count_two_leaf_states(monkeypatch)
        ds = Dataset(random_points(random.Random(45), 40, 2, hi=10**6))
        # 558 sides calls (MEANS) and 1,379 (MEDIANS): 535 and 1,322 two-leaf
        # states and 23 and 57 dimension-1 sweeps of states with three or
        # four leaves left; pricing both
        # ends of each run first takes 698 and 1,630 two-leaf states, and
        # pricing every cut of every state with three or more leaves 2,916
        # (MEANS)
        for kind, most in [(CostKind.MEANS, 600), (CostKind.MEDIANS, 1450)]:
            calls["states"] = 0
            solve_dp(ds, 4, kind)
            assert calls["states"] < most, (kind, calls)

    def test_releases_its_maps(self, monkeypatch):
        class Cost(float):
            """A float that the cyclic garbage collector tracks."""

        real, real_sides = explainable._exact_cost, explainable._LeafCosts.sides

        def sides(*args):
            return [[Cost(c) for c in costs] for costs in real_sides(*args)]

        monkeypatch.setattr(explainable, "_exact_cost", lambda *args: Cost(real(*args)))
        monkeypatch.setattr(explainable._LeafCosts, "sides", sides)
        ds = Dataset(random_points(random.Random(45), 40, 2, hi=10**6))
        flat = Dataset.from_rows([(0.0, 0.0)] * 5)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            solve_branching(ds, 1, CostKind.MEANS)  # the one leaf goes through the map
            solve_branching(ds, 3, CostKind.MEANS)
            solve_dp(ds, 4, CostKind.MEANS)  # quota-3 states and their heaps
            with pytest.raises(ValueError):
                solve_branching(flat, 3, CostKind.MEANS)
            gc.collect()
            left_over = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        # without the memo's final clear about 2,600 objects are left over,
        # and without the leaf-cost map's the k = 1 leaf's Cost is one of them
        assert len(left_over) < 200
        assert not any(isinstance(obj, Cost) for obj in left_over)


def _grid_drops(node, ds, k, eps, ids):
    """Every set of ids that the grid tree ``node`` removes from ``ids``
    under some choice of a grid line for each of its cuts: each cut's line
    drops its band's members of the node's ids."""
    if isinstance(node, Leaf):
        return {frozenset()}
    thresholds, bands = _rank_grid(ds, int(eps * ds.n / k))
    dim, theta = node.cut.dim, node.cut.theta
    drops = set()
    for t, band in zip(thresholds[dim - 1], bands[dim - 1]):
        if repr(t) != repr(theta):
            continue
        kept = [i for i in ids if i not in band]
        left = [i for i in kept if ds.points[i][dim - 1] <= theta]
        right = [i for i in kept if ds.points[i][dim - 1] > theta]
        for dl in _grid_drops(node.left, ds, k, eps, left):
            for dr in _grid_drops(node.right, ds, k, eps, right):
                drops.add(band.intersection(ids) | dl | dr)
    return drops


class TestSolveApprox:
    def test_grid_lines_stay_under_two_k_over_epsilon(self):
        # n' = floor(epsilon * n / k) >= 1 gives n // n' <= 2k / epsilon, so a
        # cap of ceil(2k / epsilon) lines per dimension never binds
        epsilons = [i / 1000 for i in range(1, 1000, 7)]
        for n in range(1, 120):
            for k in range(1, min(n, 12) + 1):
                for eps in epsilons:
                    nprime = int(eps * n / k)
                    if nprime:
                        assert n // nprime <= math.ceil(2 * k / eps), (n, k, eps)
        ds = Dataset(random_points(random.Random(50), 60, 2))
        for k, eps in [(3, 0.1), (4, 0.2), (2, 0.999)]:
            thresholds = _rank_grid(ds, int(eps * 60 / k))[0]
            assert [len(row) for row in thresholds] == [60 // int(eps * 60 / k)] * 2

    def test_k1_keeps_everything(self):
        ds = gapped_1d()
        res = solve_approx(ds, 1, CostKind.MEANS, 0.5)
        assert res.removed == frozenset()
        assert res.cost == pytest.approx(cluster_cost(list(ds.points), CostKind.MEANS))

    def test_k1_overflow_raises(self):
        ds = Dataset.from_rows([(-1e200,), (0,), (1e200,)])
        with pytest.raises(OverflowError):
            solve_approx(ds, 1, CostKind.MEANS, 0.5)

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
            n, d, k = rng.randint(4, 22), rng.randint(1, 2), rng.randint(1, 4)
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

    def test_matches_list_enumeration(self):
        """Cost, fallback or refusal, and rank grid equal the enumeration of
        every grid tree over id lists on tie-heavy inputs (repeated
        thresholds, duplicates, signed zeros, ints); every removed set is
        the union of its nodes' band members."""
        rng = random.Random(48)
        seen = Counter()
        for case in range(300):
            n, d = rng.randint(4, 16), rng.randint(1, 3)
            k = rng.randint(1, 3)
            eps = rng.choice([0.1, 0.2, 0.3, 0.5])
            if case % 25 == 0:
                # the reference prices 5 * options**3 trees at k = 4
                n, d, k, eps = rng.randint(8, 9), 1, 4, 0.5
            pts = tie_heavy_points(rng, n, d)
            while k == 4 and len(set(pts)) < 5:
                pts = tie_heavy_points(rng, n, d)
            if k < 4 and rng.random() < 0.3:
                # mostly one point: bands can then empty a leaf of every tree
                pts = tuple(pts[0] if rng.random() < 0.7 else p for p in pts)
            ds = Dataset(pts)
            for kind in BOTH_KINDS:
                try:
                    want = reference_solve_approx(ds, k, kind, eps)
                except ValueError:
                    with pytest.raises(ValueError, match="too few distinct points"):
                        solve_approx(ds, k, kind, eps)
                    seen["refused"] += 1
                    continue
                got = solve_approx(ds, k, kind, eps)
                assert math.isclose(got.cost, want.cost, rel_tol=1e-12), (got.cost, want.cost)
                assert repr(got.rank_grid) == repr(want.rank_grid)
                for res in (got, want):
                    assert res.kept == frozenset(range(n)) - res.removed
                    if any(res.rank_grid):
                        assert res.removed in _grid_drops(res.tree.root, ds, k, eps, range(n))
                    else:
                        assert not res.removed
                    clusters = [[pts[i] for i in ids if i in res.kept]
                                for ids in tree_evaluate(res.tree, ds).values()]
                    assert all(clusters)
                    total = math.fsum(cluster_cost(c, kind) for c in clusters)
                    assert math.isclose(total, res.cost, rel_tol=1e-12)
                if int(eps * n / k) == 0:
                    seen["n' = 0"] += 1
                elif not any(want.rank_grid):
                    seen["no grid tree"] += 1
                else:
                    seen["grid", k] += 1
                    seen["repeated"] += any(len(set(ts)) < len(ts) for ts in want.rank_grid)
        assert min(seen["grid", k] for k in (1, 2, 3, 4)) >= 10
        assert seen["repeated"] >= 100
        assert min(seen["n' = 0"], seen["no grid tree"], seen["refused"]) >= 3, seen

    def test_leaf_memo_prices_few_leaves(self, monkeypatch):
        calls = [0]
        real = explainable._exact_cost

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(explainable, "_exact_cost", counting)
        ds = Dataset(random_points(random.Random(47), 66, 2, hi=10**6))
        solve_approx(ds, 3, CostKind.MEANS, 0.1)
        # no calls: the two-leaf states price their sides by sorted passes
        # and the root reads its one-leaf sides off its sweep (124 calls when
        # it priced them one at a time); pricing each side of each two-leaf
        # cut alone took 2,407 with the leaf-cost map and 7,976 without it
        assert calls[0] < 3000

    def test_two_leaf_grid_states_price_few_leaves(self, monkeypatch):
        calls = _count_two_leaf_states(monkeypatch)
        real_exact = explainable._exact_cost

        def exact(*args):
            calls["leaf"] += 1
            return real_exact(*args)

        monkeypatch.setattr(explainable, "_exact_cost", exact)
        ds = Dataset(random_points(random.Random(4), 90, 2, hi=10**6))
        solve_approx(ds, 3, CostKind.MEANS, 0.1)
        # 68 sides calls, 67 two-leaf states and the root's sweep, and no
        # single leaf (the root's one-leaf sides were 112 when it priced them
        # one at a time); pricing each side of each grid cut alone takes 2,343,
        # and pricing the two-leaf side of a cut whose one-leaf side already
        # reaches the best total makes 92 states
        assert calls["states"] < 80 and calls["leaf"] < 300, calls

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_band_of_ties_crossed_by_its_threshold(self, kind, monkeypatch):
        """The first line's band holds only copies of theta = 5 and point 6,
        past the band, equals theta too: the line's left side {3, 0, 6} is
        no prefix of the sorted members, so it is priced as one leaf."""
        pts = ((5,), (10,), (5,), (0,), (5,), (9,), (5,))
        ds = Dataset.from_rows(pts)
        leaves = []
        real_leaf = explainable._LeafCosts.leaf

        def leaf(self, mask):
            leaves.append(mask)
            return real_leaf(self, mask)

        monkeypatch.setattr(explainable._LeafCosts, "leaf", leaf)
        got = solve_approx(ds, 2, kind, 0.6)  # n' = 2: lines at ranks 2, 4, 6
        want = reference_solve_approx(ds, 2, kind, 0.6)
        assert repr(got.cost) == repr(want.cost)
        assert json.dumps(tree_to_json_obj(got.tree)) == json.dumps(tree_to_json_obj(want.tree))
        assert (got.removed, got.kept, got.rank_grid) == (want.removed, want.kept, want.rank_grid)
        assert leaves == [1 << 3 | 1 << 0 | 1 << 6]
        if kind is CostKind.MEANS:  # the crossing line is the unique optimum
            assert got.removed == {2, 4} and got.cost == 50 / 3 + 0.5

    @pytest.mark.parametrize("kind", BOTH_KINDS)
    def test_band_of_ties_crossed_at_quota_three(self, kind, monkeypatch):
        """At the root, a state with three leaves left, the line at rank 2 of
        dimension 1 has a band of two copies of theta = 5 and point 8, past
        the band, equals theta too: that line's left side {0, 2, 8} is no
        prefix of the root's sorted members, so ``leaf`` prices it and the
        root's sweep does not, while its right sides are the sweep's."""
        pts = ((5, 0), (9, 0), (5, 0), (10, 3), (5, 0), (5, 3), (10, 1), (10, 3), (5, 3))
        ds = Dataset.from_rows(pts)
        leaves = set()
        real_leaf = explainable._LeafCosts.leaf

        def leaf(self, mask):
            leaves.add(mask)
            return real_leaf(self, mask)

        monkeypatch.setattr(explainable._LeafCosts, "leaf", leaf)
        got = solve_approx(ds, 3, kind, 0.9)  # n' = 2: lines at ranks 2, 4, 6, 8
        want = reference_solve_approx(ds, 3, kind, 0.9)
        assert repr(got.cost) == repr(want.cost)
        assert json.dumps(tree_to_json_obj(got.tree)) == json.dumps(tree_to_json_obj(want.tree))
        assert (got.removed, got.kept, got.rank_grid) == (want.removed, want.kept, want.rank_grid)
        assert leaves == {1 << 0 | 1 << 2 | 1 << 8}

    def test_quota_three_grid_roots_match_list_enumeration(self):
        """At k = 3 and n' = 1 the root's one-leaf sides, the right leaves of
        its skip test included, and its children's sides along each line come
        off the root's sweeps; at k = 4, with n' = 1 (n = 8) and n' = 2
        (n = 12), so do those of the quota-3 grid states below the root.
        Cost, tree and removed set equal the enumeration's exactly on
        tie-heavy inputs in the plane."""
        rng = random.Random(51)
        for k, eps, n in [(3, 0.5, None)] * 60 + [(4, 0.5, 8), (4, 0.7, 12)] * 10:
            ds = Dataset(tie_heavy_points(rng, n or rng.randint(6, 10), 2))
            for kind in BOTH_KINDS:
                try:
                    want = reference_solve_approx(ds, k, kind, eps)
                except ValueError:
                    continue
                got = solve_approx(ds, k, kind, eps)
                assert (repr(got.cost), got.removed) == (repr(want.cost), want.removed)
                assert json.dumps(tree_to_json_obj(got.tree)) == json.dumps(tree_to_json_obj(want.tree))

    def test_releases_its_memo(self, monkeypatch):
        class Cost(float):
            """A float that the cyclic garbage collector tracks."""

        real = explainable._exact_cost
        monkeypatch.setattr(explainable, "_exact_cost", lambda *args: Cost(real(*args)))
        ds = Dataset(random_points(random.Random(47), 66, 2, hi=10**6))
        gc.collect()
        gc.disable()
        try:
            solve_approx(ds, 3, CostKind.MEANS, 0.1)
            left_over = gc.collect()
        finally:
            gc.enable()
        # maps that a reference cycle kept alive would hold about 2,900
        assert left_over < 200


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

    def test_matches_reference(self):
        """Centers, labels and cost, signed zeros included, equal the
        per-pair loop's on tie-heavy and signed-zero inputs."""
        rng = random.Random(50)
        inputs = [tie_heavy_points(rng, rng.randint(5, 30), rng.randint(1, 3))
                  for _ in range(60)]
        inputs += [tuple(tuple(rng.choice([0.0, -0.0, 1.0, -1.0]) for _ in range(d))
                         for _ in range(rng.randint(5, 20)))
                   for d in (1, 2, 3) for _ in range(10)]
        compared = 0
        for pts in inputs:
            ds = Dataset(pts)
            for kind in BOTH_KINDS:
                for k in range(1, min(5, ds.n) + 1):
                    seed = rng.randrange(1000)
                    got = lloyd_baseline(ds, k, kind, seed)
                    want = reference_lloyd(ds, k, kind, seed)
                    assert got == want and repr(got) == repr(want), (pts, k, kind, seed)
                    compared += 1
        assert compared == 900

    def test_validates_args(self):
        with pytest.raises(ValueError):
            lloyd_baseline(gapped_1d(), 0, CostKind.MEANS, seed=0)
        with pytest.raises(ValueError):
            lloyd_baseline(gapped_1d(), 2, CostKind.MEANS, seed=0, iters=0)
