"""Command-line interface.

Subcommands: check, explain, kernel, fit, baseline, gen (plus a hidden
oracle command for debugging). JSON reports go to stdout, diagnostics to
stderr. Exit codes: 0 success / positive answer, 1 well-formed but
negative or infeasible answer, 2 usage or input error, 3 internal failure
(a failed self-check, RecursionError or MemoryError; stderr reads
"error: internal: <Type>: <message>").
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Sequence

from .core import CostKind, Dataset, LimitExceededError
from .explainable import (
    BRANCH_MAX_K,
    DP_MAX_D,
    DP_MAX_N,
    lloyd_baseline,
    solve_approx,
    solve_branching,
    solve_dp,
)
from .explanation import (
    EXACT_MAX_D,
    EXACT_MAX_N,
    Clustering,
    check_explainable,
    exact_explain,
    greedy_explain,
    kernelize,
)
from .generate import gen_separated, gen_uniform, gen_xor
from .oracle import brute_explainable, brute_explanation, brute_unconstrained
from .serialize import tree_to_dot, tree_to_json_obj
from .tree import tree_evaluate

DEFAULT_LABEL_COL = "cluster"


class InputError(ValueError):
    """Bad CSV / arguments; mapped to exit code 2."""


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: empty file (header row required)")
    return rows[0], rows[1:]


def read_dataset(
    path: str, label_col: str, *, require_labels: bool
) -> tuple[Dataset, list[int] | None]:
    """Parse a CSV with a header; non-label columns are coordinates."""
    header, body = _read_rows(path)
    label_idx = header.index(label_col) if label_col in header else None
    if require_labels and label_idx is None:
        raise InputError(f"{path}: label column {label_col!r} not found in header")
    coord_idx = [i for i in range(len(header)) if i != label_idx]
    if not coord_idx:
        raise InputError(f"{path}: no coordinate columns")
    if not body:
        raise InputError(f"{path}: no data rows")
    pts: list[tuple[float, ...]] = []
    labels: list[int] = []
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            pts.append(tuple(float(row[i]) for i in coord_idx))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
        if label_idx is not None:
            try:
                labels.append(int(row[label_idx]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad label: {exc}") from exc
    try:
        ds = Dataset(tuple(pts))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return ds, (labels if label_idx is not None else None)


def read_clustering(path: str, label_col: str) -> Clustering:
    ds, labels = read_dataset(path, label_col, require_labels=True)
    try:
        return Clustering.from_labels(ds, labels)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _guardrails(force: bool) -> dict:
    return {
        "force": force,
        "limits": {
            "exact_explain": {"n": EXACT_MAX_N, "d": EXACT_MAX_D},
            "solve_branching": {"k": BRANCH_MAX_K},
            "solve_dp": {"n": DP_MAX_N, "d": DP_MAX_D},
        },
    }


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_check(args) -> int:
    cl = read_clustering(args.input, args.label_col)
    t0 = time.perf_counter()
    ok = check_explainable(cl)
    report = {
        "command": "check",
        "input": {"path": args.input, "n": cl.ds.n, "d": cl.ds.d, "k": cl.k},
        "solver": "greedy",
        "result": {"explainable": ok},
        "wall_time_s": time.perf_counter() - t0,
        "guardrails": _guardrails(False),
    }
    _emit(report)
    return 0 if ok else 1


def cmd_explain(args) -> int:
    cl = read_clustering(args.input, args.label_col)
    t0 = time.perf_counter()
    if args.method == "greedy":
        res = greedy_explain(cl)
        feasible = True
    else:
        if args.budget is None:
            raise InputError("--method exact requires --budget")
        try:
            res = exact_explain(cl, args.budget, force=args.force)
        except LimitExceededError as exc:
            raise InputError(
                f"{exc}; try --method greedy, kernel first, or --force"
            ) from exc
        feasible = res is not None
    elapsed = time.perf_counter() - t0
    report = {
        "command": "explain",
        "input": {
            "path": args.input,
            "n": cl.ds.n,
            "d": cl.ds.d,
            "k": cl.k,
            "s": args.budget,
        },
        "solver": args.method,
        "wall_time_s": elapsed,
        "guardrails": _guardrails(args.force),
    }
    if feasible:
        report["result"] = {
            "feasible": True,
            "removed": sorted(res.removed),
            "removed_count": res.removed_count,
        }
        report["tree"] = tree_to_json_obj(res.tree)
        if args.format == "dot":
            sizes = {
                lab: len(ids) for lab, ids in tree_evaluate(res.tree, cl.ds).items()
            }
            sys.stdout.write(tree_to_dot(res.tree, sizes))
        else:
            _emit(report)
        return 0
    report["result"] = {"feasible": False}
    _emit(report)
    return 1


def cmd_kernel(args) -> int:
    cl = read_clustering(args.input, args.label_col)
    t0 = time.perf_counter()
    kernel, mapping = kernelize(cl, args.budget)
    elapsed = time.perf_counter() - t0
    header = [f"x{i + 1}" for i in range(kernel.ds.d)] + [args.label_col]
    rows = [
        [int(c) for c in p] + [lab]
        for p, lab in zip(kernel.ds.points, kernel.labels)
    ]
    write_csv(args.output, header, rows)
    mapping_path = args.mapping or args.output + ".mapping.json"
    try:
        with open(mapping_path, "w", encoding="utf-8") as fh:
            json.dump({str(k): v for k, v in mapping.items()}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {mapping_path}: {exc}") from exc
    report = {
        "command": "kernel",
        "input": {
            "path": args.input,
            "n": cl.ds.n,
            "d": cl.ds.d,
            "k": cl.k,
            "s": args.budget,
        },
        "solver": "kernelize",
        "result": {
            "original_size": cl.ds.n,
            "kernel_size": kernel.ds.n,
            "bound": 2 * (args.budget + 1) * cl.ds.d * cl.k,
            "kernel_csv": args.output,
            "mapping_json": mapping_path,
        },
        "wall_time_s": elapsed,
        "guardrails": _guardrails(False),
    }
    _emit(report)
    return 0


def cmd_fit(args) -> int:
    ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
    kind = CostKind(args.cost)
    if not 1 <= args.k <= ds.n:
        raise InputError(f"k must be in 1..{ds.n}")
    t0 = time.perf_counter()
    extra: dict = {}
    try:
        if args.method == "branch":
            res = solve_branching(ds, args.k, kind, force=args.force)
        elif args.method == "dp":
            res = solve_dp(ds, args.k, kind, force=args.force)
        else:
            if args.epsilon is None:
                raise InputError("--method approx requires --epsilon")
            ares = solve_approx(ds, args.k, kind, args.epsilon, force=args.force)
            if len(ares.removed) > args.epsilon * ds.n:
                raise AssertionError("approx removal bound violated")
            extra = {
                "kept": sorted(ares.kept),
                "removed": sorted(ares.removed),
                "epsilon": ares.epsilon,
                "rank_grid": [list(ts) for ts in ares.rank_grid],
            }
            clusters = tree_evaluate(ares.tree, ds)
            kept = ares.kept
            clusters = {
                lab: tuple(i for i in ids if i in kept) for lab, ids in clusters.items()
            }
            res = None
            tree, cost = ares.tree, ares.cost
    except LimitExceededError as exc:
        raise InputError(f"{exc}") from exc
    if res is not None:
        tree, cost = res.tree, res.cost
        clusters = res.clusters
    elapsed = time.perf_counter() - t0
    report = {
        "command": "fit",
        "input": {
            "path": args.input,
            "n": ds.n,
            "d": ds.d,
            "k": args.k,
            "cost": args.cost,
        },
        "solver": args.method,
        "result": {
            "cost": cost,
            "clusters": {str(lab): list(ids) for lab, ids in clusters.items()},
            **extra,
        },
        "wall_time_s": elapsed,
        "guardrails": _guardrails(args.force),
        "tree": tree_to_json_obj(tree),
    }
    if args.format == "dot":
        sizes = {lab: len(ids) for lab, ids in clusters.items()}
        sys.stdout.write(tree_to_dot(tree, sizes))
    else:
        _emit(report)
    return 0


def cmd_baseline(args) -> int:
    ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
    kind = CostKind(args.cost)
    if not 1 <= args.k <= ds.n:
        raise InputError(f"k must be in 1..{ds.n}")
    t0 = time.perf_counter()
    res = lloyd_baseline(ds, args.k, kind, args.seed, args.iters)
    elapsed = time.perf_counter() - t0
    if args.explainable_cost is None:
        ratio = None
    elif res.cost == 0.0:
        ratio = "n/a"
    else:
        ratio = args.explainable_cost / res.cost
    result = {
        "cost": res.cost,
        "labels": list(res.labels),
        "centers": [list(c) for c in res.centers],
    }
    if args.explainable_cost is not None:
        result["explainable_cost"] = args.explainable_cost
        result["ratio"] = ratio
    report = {
        "command": "baseline",
        "input": {
            "path": args.input,
            "n": ds.n,
            "d": ds.d,
            "k": args.k,
            "cost": args.cost,
            "seed": args.seed,
            "iters": args.iters,
        },
        "solver": "lloyd",
        "result": result,
        "wall_time_s": elapsed,
        "guardrails": _guardrails(False),
    }
    _emit(report)
    return 0


def cmd_gen(args) -> int:
    if args.shape == "separated":
        cl = gen_separated(args.k, args.per_cluster, args.dim, args.separation, args.seed)
    elif args.shape == "xor":
        if args.k != 2:
            raise InputError("shape xor requires --k 2")
        cl = gen_xor(args.per_cluster, args.dim, args.seed)
    else:
        cl = gen_uniform(args.k, args.per_cluster, args.dim, args.seed)
    header = [f"x{i + 1}" for i in range(cl.ds.d)] + ["cluster"]
    rows = [
        [repr(c) for c in p] + [lab] for p, lab in zip(cl.ds.points, cl.labels)
    ]
    write_csv(args.output, header, rows)
    report = {
        "command": "gen",
        "input": {
            "shape": args.shape,
            "k": cl.k,
            "per_cluster": args.per_cluster,
            "dim": args.dim,
            "separation": args.separation,
            "seed": args.seed,
        },
        "solver": "generator",
        "result": {"output": args.output, "n": cl.ds.n, "d": cl.ds.d},
        "wall_time_s": 0.0,
        "guardrails": _guardrails(False),
    }
    _emit(report)
    return 0


def cmd_oracle(args) -> int:
    if args.which == "explainable":
        ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
        res = brute_explainable(ds, args.k, CostKind(args.cost))
        _emit(
            {
                "command": "oracle",
                "result": {"cost": res.cost},
                "tree": tree_to_json_obj(res.tree),
            }
        )
        return 0
    if args.which == "explanation":
        cl = read_clustering(args.input, args.label_col)
        out = brute_explanation(cl, args.budget)
        if out is None:
            _emit({"command": "oracle", "result": {"feasible": False}})
            return 1
        removed, tree = out
        _emit(
            {
                "command": "oracle",
                "result": {"feasible": True, "removed": sorted(removed)},
                "tree": tree_to_json_obj(tree),
            }
        )
        return 0
    ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
    cost = brute_unconstrained(ds, args.k, CostKind(args.cost))
    _emit({"command": "oracle", "result": {"cost": cost}})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeclust",
        description="Explainable clustering with threshold trees",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_label_col(p):
        p.add_argument("--label-col", default=DEFAULT_LABEL_COL)

    p = sub.add_parser("check", help="test whether a labeled CSV is explainable")
    p.add_argument("input")
    add_label_col(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("explain", help="repair a clustering by removing points")
    p.add_argument("input")
    add_label_col(p)
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("kernel", help="shrink an instance, preserving the answer")
    p.add_argument("input")
    add_label_col(p)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mapping", default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("fit", help="optimal or approximate explainable clustering")
    p.add_argument("input")
    add_label_col(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cost", choices=["means", "medians"], default="means")
    p.add_argument("--method", choices=["branch", "dp", "approx"], default="dp")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", help="unconstrained Lloyd baseline")
    p.add_argument("input")
    add_label_col(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cost", choices=["means", "medians"], default="means")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--explainable-cost", type=float, default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("gen", help="generate a labeled CSV instance")
    p.add_argument("--shape", choices=["separated", "xor", "uniform"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--per-cluster", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle")  # hidden: debugging brute-force reference
    p.add_argument("which", choices=["explainable", "explanation", "unconstrained"])
    p.add_argument("input")
    add_label_col(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--cost", choices=["means", "medians"], default="means")
    p.add_argument("--budget", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, LimitExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RecursionError, MemoryError) as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
