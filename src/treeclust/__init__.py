"""Explainable k-means/k-median clustering with threshold trees.

Each public name is imported from its module on first access (PEP 562), so
``import treeclust`` and a CLI process load only the modules they use.
"""
from importlib import import_module

_HOMES = {
    "core": ("Box", "CostKind", "Cut", "Dataset", "LimitExceededError", "Point", "box_members",
             "canonical_thresholds", "centroid", "cluster_cost", "cut_apply"),
    "explainable": ("ApproxResult", "ExplainableResult", "LloydResult", "lloyd_baseline",
                    "solve_approx", "solve_branching", "solve_dp"),
    "explanation": ("Clustering", "ExplanationResult", "best_cut", "check_explainable",
                    "exact_explain", "greedy_explain", "kernelize", "opt_explain"),
    "generate": ("gen_separated", "gen_uniform", "gen_xor"),
    "oracle": ("brute_explainable", "brute_explanation", "brute_unconstrained"),
    "serialize": ("tree_from_json_obj", "tree_to_dot", "tree_to_json_obj"),
    "tree": ("Internal", "Leaf", "ThresholdTree", "TreeNode", "TreeShape", "enumerate_shapes",
             "shape_leaf_count", "tree_evaluate", "tree_from_shape", "validate_tree"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
