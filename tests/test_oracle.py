import ast
import random
from pathlib import Path

import pytest

from treeclust import (
    Clustering,
    CostKind,
    Dataset,
    LimitExceededError,
    brute_explainable,
    brute_explanation,
    brute_unconstrained,
    cluster_cost,
)
from helpers import random_clustering, random_points


def xor_instance():
    ds = Dataset.from_rows([(0, 0), (1, 1), (0, 1), (1, 0)])
    return Clustering(ds, (1, 1, 2, 2), 2)


class TestBruteExplainable:
    def test_k1(self):
        ds = Dataset.from_rows([(0,), (1,), (5,)])
        res = brute_explainable(ds, 1, CostKind.MEANS)
        assert res.cost == pytest.approx(cluster_cost(list(ds.points), CostKind.MEANS))

    def test_gapped(self):
        ds = Dataset.from_rows([(0,), (1,), (10,), (11,)])
        assert brute_explainable(ds, 2, CostKind.MEANS).cost == pytest.approx(1.0)

    def test_n_equals_k(self):
        ds = Dataset.from_rows([(0, 0), (1, 2), (3, 1)])
        assert brute_explainable(ds, 3, CostKind.MEDIANS).cost == 0.0

    def test_limits(self):
        ds = Dataset(random_points(random.Random(1), 11, 2))
        with pytest.raises(LimitExceededError):
            brute_explainable(ds, 2, CostKind.MEANS)


class TestBruteExplanation:
    def test_explainable_input_zero_budget(self):
        ds = Dataset.from_rows([(0,), (1,), (10,)])
        cl = Clustering(ds, (1, 1, 2), 2)
        res = brute_explanation(cl, 0)
        assert res is not None
        removed, tree = res
        assert removed == frozenset()
        assert set(tree.leaf_labels()) == {1, 2}

    def test_xor_small_budgets_fail(self):
        cl = xor_instance()
        assert brute_explanation(cl, 0) is None
        # every single-point removal leaves the remaining diagonal pair
        # enclosing the survivor of the other cluster: still inseparable
        assert brute_explanation(cl, 1) is None
        res = brute_explanation(cl, 2)
        assert res is not None and len(res[0]) == 2

    def test_monotone_in_budget(self):
        rng = random.Random(2)
        for _ in range(10):
            cl = random_clustering(rng, rng.randint(3, 8), 2, 2)
            feas = [brute_explanation(cl, s) is not None for s in range(4)]
            assert feas == sorted(feas)

    def test_limits(self):
        rng = random.Random(3)
        cl = random_clustering(rng, 13, 1, 2)
        with pytest.raises(LimitExceededError):
            brute_explanation(cl, 1)
        small = random_clustering(rng, 5, 1, 2)
        with pytest.raises(LimitExceededError):
            brute_explanation(small, 5)


class TestBruteUnconstrained:
    def test_trivial_cases(self):
        ds = Dataset.from_rows([(0,), (3,), (9,)])
        assert brute_unconstrained(ds, 3, CostKind.MEANS) == 0.0
        assert brute_unconstrained(ds, 1, CostKind.MEANS) == pytest.approx(
            cluster_cost(list(ds.points), CostKind.MEANS)
        )

    def test_gapped(self):
        ds = Dataset.from_rows([(0,), (1,), (10,), (11,)])
        assert brute_unconstrained(ds, 2, CostKind.MEANS) == pytest.approx(1.0)

    def test_never_exceeds_explainable(self):
        rng = random.Random(4)
        for _ in range(15):
            n, k = rng.randint(2, 8), rng.randint(1, 3)
            if k > n:
                continue
            ds = Dataset(random_points(rng, n, 2))
            for kind in (CostKind.MEANS, CostKind.MEDIANS):
                try:
                    expl = brute_explainable(ds, k, kind)
                except ValueError:
                    continue
                assert brute_unconstrained(ds, k, kind) <= expl.cost + 1e-9

    def test_limits(self):
        ds = Dataset(random_points(random.Random(5), 9, 1))
        with pytest.raises(LimitExceededError):
            brute_unconstrained(ds, 2, CostKind.MEANS)


# The private names each reference may take from the solver modules: none,
# so a reference shares no search logic, grid or relabelling with a solver.
REFERENCES = {
    Path(__file__).parent.parent / "src" / "treeclust" / "oracle.py": set(),
    Path(__file__).parent / "helpers.py": set(),
}
SOLVER_MODULES = {"explainable", "explanation"}


@pytest.mark.parametrize("path", sorted(REFERENCES), ids=lambda p: p.name)
def test_references_share_no_search_logic(path):
    tree = ast.parse(path.read_text())
    taken = set()  # private names read from a solver module
    modules = set()  # names bound to a solver module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_solver = (node.module or "").rsplit(".", 1)[-1] in SOLVER_MODULES
            for alias in node.names:
                if from_solver and alias.name.startswith("_"):
                    taken.add(alias.name)
                elif alias.name in SOLVER_MODULES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in SOLVER_MODULES:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and ast.unparse(node.value) in modules):
            taken.add(node.attr)
    assert taken <= REFERENCES[path], taken - REFERENCES[path]
