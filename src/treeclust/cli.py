"""Command-line interface.

Subcommands: check, explain, kernel, fit, baseline, gen (plus a hidden
oracle command for debugging). Every subcommand writes one JSON report to
stdout with the keys command, input (the input's size and the
parameters), solver, result, wall_time_s (solve time only, without
parsing or output; for gen, generating and writing the file), guardrails
(--force and the exact solvers' size limits) and, when there is one,
tree. explain and fit with --format dot write the tree's DOT drawing
instead, and each leaf's size counts only the kept points routed to it.
Diagnostics go to stderr. Exit codes: 0 success / positive answer, 1
well-formed but negative or infeasible answer, 2 usage or input error
(coordinates so large that a cost overflows a float included, any
report number that is not finite, which JSON cannot hold, a tree nested
deeper than the json module can write, and a non-finite --separation for
gen), 3 internal failure (a failed self-check or any other unexpected
exception; stderr reads
"error: internal: <Type>: <message>"). Each subcommand imports only the
solver modules it runs. Files the CLI writes (kernel's CSV and mapping
JSON, gen's CSV) are UTF-8 with "\n" line ends; a path that cannot be
written exits 2 with "error: cannot write <path>: <reason>", and kernel
then removes the CSV it wrote, so no kernel CSV is left without its mapping.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Sequence

from .core import LIMITS, CostKind, Dataset, LimitExceededError
from .serialize import tree_to_dot, tree_to_json_obj
from .tree import ThresholdTree, tree_evaluate

if TYPE_CHECKING:
    from .explanation import Clustering

DEFAULT_LABEL_COL = "cluster"


class InputError(ValueError):
    """Bad CSV / arguments; mapped to exit code 2."""


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    try:
        # utf-8-sig drops the byte order mark that spreadsheet exports put first
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not rows:
        raise InputError(f"{path}: empty file (header row required)")
    return rows[0], rows[1:]


def read_dataset(
    path: str, label_col: str, *, require_labels: bool
) -> tuple[Dataset, list[int] | None]:
    """Parse a CSV with a header; non-label columns are coordinates. The
    label values are parsed only when the caller requires labels."""
    header, body = _read_rows(path)
    label_idx = header.index(label_col) if label_col in header else None
    if require_labels and label_idx is None:
        raise InputError(f"{path}: label column {label_col!r} not found in header")
    coord_idx = [i for i in range(len(header)) if i != label_idx]
    if not coord_idx:
        raise InputError(f"{path}: no coordinate columns")
    if not any(body):
        raise InputError(f"{path}: no data rows")
    pts: list[tuple[float, ...]] = []
    labels: list[int] = []
    for lineno, row in enumerate(body, start=2):
        if not row:  # a blank line, such as one at the end of the file
            continue
        if len(row) != len(header):
            raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            pts.append(tuple(float(row[i]) for i in coord_idx))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
        if require_labels:
            try:
                labels.append(int(row[label_idx]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad label: {exc}") from exc
    try:
        ds = Dataset(tuple(pts))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return ds, (labels if require_labels else None)


def read_clustering(path: str, label_col: str) -> Clustering:
    from .explanation import Clustering

    ds, labels = read_dataset(path, label_col, require_labels=True)
    try:
        return Clustering.from_labels(ds, labels)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with "\n" line ends: the only
    place the CLI opens an output file."""
    try:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, cl: Clustering, label_col: str, fmt: Callable[[float], object]) -> None:
    """Write a labeled instance: header ``x1..xd,<label_col>``, then one row
    per point with each coordinate as ``fmt(c)``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(cl.ds.d)] + [label_col])
    writer.writerows([*map(fmt, p), lab] for p, lab in zip(cl.ds.points, cl.labels))
    _write(path, buf.getvalue())


def _input(args, ds: Dataset, **params) -> dict:
    return {"path": args.input, "n": ds.n, "d": ds.d, **params}


def _kept(tree: ThresholdTree, ds: Dataset, removed: frozenset[int]) -> dict:
    """Label -> ids of the kept points routed to that leaf."""
    return {
        lab: tuple(i for i in ids if i not in removed)
        for lab, ids in tree_evaluate(tree, ds).items()
    }


def _report(
    args, inp: dict, solver: str, result: dict, elapsed: float, *,
    tree: ThresholdTree | None = None, clusters: dict | None = None, code: int = 0,
) -> int:
    """Write the command's report to stdout and return its exit code.

    With ``--format dot`` and a tree, the report is the tree's DOT drawing,
    each leaf sized by its kept points in ``clusters``; otherwise it is the
    JSON report every subcommand shares.
    """
    if tree is not None and getattr(args, "format", "json") == "dot":
        sys.stdout.write(tree_to_dot(tree, {lab: len(ids) for lab, ids in clusters.items()}))
        return code
    report = {
        "command": args.cmd,
        "input": inp,
        "solver": solver,
        "result": result,
        "wall_time_s": elapsed,
        "guardrails": {
            "force": getattr(args, "force", False),
            "limits": LIMITS,
        },
    }
    if tree is not None:
        report["tree"] = tree_to_json_obj(tree)
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError as exc:  # JSON has no NaN or infinity
        raise InputError("a reported number is not finite (it overflows a float)") from exc
    except RecursionError as exc:  # json nests only as deep as the recursion limit
        raise InputError(f"the tree is too deep for a JSON report: json nests fewer than "
                         f"{sys.getrecursionlimit()} levels; use --format dot") from exc
    sys.stdout.write(text + "\n")
    return code


def cmd_check(args) -> int:
    from .explanation import check_explainable

    cl = read_clustering(args.input, args.label_col)
    t0 = time.perf_counter()
    ok = check_explainable(cl)
    elapsed = time.perf_counter() - t0
    return _report(
        args, _input(args, cl.ds, k=cl.k), "greedy", {"explainable": ok}, elapsed,
        code=0 if ok else 1,
    )


def cmd_explain(args) -> int:
    from .explanation import exact_explain, greedy_explain

    cl = read_clustering(args.input, args.label_col)
    t0 = time.perf_counter()
    if args.method == "greedy":
        res = greedy_explain(cl)
    else:
        if args.budget is None:
            raise InputError("--method exact requires --budget")
        res = exact_explain(cl, args.budget, force=args.force)
    elapsed = time.perf_counter() - t0
    inp = _input(args, cl.ds, k=cl.k, s=args.budget)
    if res is None:
        return _report(args, inp, args.method, {"feasible": False}, elapsed, code=1)
    result = {
        "feasible": True,
        "removed": sorted(res.removed),
        "removed_count": res.removed_count,
    }
    return _report(
        args, inp, args.method, result, elapsed,
        tree=res.tree, clusters=_kept(res.tree, cl.ds, res.removed),
    )


def cmd_kernel(args) -> int:
    from .explanation import kernelize

    mapping_path = args.mapping or args.output + ".mapping.json"
    if os.path.realpath(mapping_path) == os.path.realpath(args.output):
        raise InputError(f"--output and --mapping name the same file: {args.output}")
    cl = read_clustering(args.input, args.label_col)
    t0 = time.perf_counter()
    kernel, mapping = kernelize(cl, args.budget)
    elapsed = time.perf_counter() - t0
    write_csv(args.output, kernel, args.label_col, int)
    try:
        _write(mapping_path, json.dumps({str(k): v for k, v in mapping.items()}, indent=2) + "\n")
    except InputError:
        os.remove(args.output)  # a kernel CSV is never left without its mapping
        raise
    result = {
        "original_size": cl.ds.n,
        "kernel_size": kernel.ds.n,
        "bound": 2 * (args.budget + 1) * cl.ds.d * cl.k,
        "kernel_csv": args.output,
        "mapping_json": mapping_path,
    }
    return _report(
        args, _input(args, cl.ds, k=cl.k, s=args.budget), "kernelize", result, elapsed
    )


def cmd_fit(args) -> int:
    from .explainable import solve_approx, solve_branching, solve_dp

    ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
    kind = CostKind(args.cost)
    approx = args.method == "approx"
    if approx and args.epsilon is None:
        raise InputError("--method approx requires --epsilon")
    t0 = time.perf_counter()
    if approx:
        res = solve_approx(ds, args.k, kind, args.epsilon, force=args.force)
    else:
        solve = solve_branching if args.method == "branch" else solve_dp
        res = solve(ds, args.k, kind, force=args.force)
    elapsed = time.perf_counter() - t0
    clusters = _kept(res.tree, ds, res.removed) if approx else res.clusters
    result = {
        "cost": res.cost,
        "clusters": {str(lab): list(ids) for lab, ids in clusters.items()},
    }
    if approx:
        result.update(
            kept=sorted(res.kept),
            removed=sorted(res.removed),
            epsilon=res.epsilon,
            rank_grid=[list(ts) for ts in res.rank_grid],
        )
    return _report(
        args, _input(args, ds, k=args.k, cost=args.cost), args.method, result, elapsed,
        tree=res.tree, clusters=clusters,
    )


def cmd_baseline(args) -> int:
    from .explainable import lloyd_baseline

    if args.explainable_cost is not None and not math.isfinite(args.explainable_cost):
        raise InputError("--explainable-cost must be finite")
    ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
    t0 = time.perf_counter()
    res = lloyd_baseline(ds, args.k, CostKind(args.cost), args.seed, args.iters)
    elapsed = time.perf_counter() - t0
    result = {
        "cost": res.cost,
        "labels": list(res.labels),
        "centers": [list(c) for c in res.centers],
    }
    if args.explainable_cost is not None:
        result["explainable_cost"] = args.explainable_cost
        result["ratio"] = "n/a" if res.cost == 0.0 else args.explainable_cost / res.cost
    inp = _input(args, ds, k=args.k, cost=args.cost, seed=args.seed, iters=args.iters)
    return _report(args, inp, "lloyd", result, elapsed)


def cmd_gen(args) -> int:
    from .generate import gen_separated, gen_uniform, gen_xor

    if not math.isfinite(args.separation):
        raise InputError("--separation must be finite")
    t0 = time.perf_counter()
    if args.shape == "separated":
        cl = gen_separated(args.k, args.per_cluster, args.dim, args.separation, args.seed)
    elif args.shape == "xor":
        if args.k != 2:
            raise InputError("shape xor requires --k 2")
        cl = gen_xor(args.per_cluster, args.dim, args.seed)
    else:
        cl = gen_uniform(args.k, args.per_cluster, args.dim, args.seed)
    write_csv(args.output, cl, DEFAULT_LABEL_COL, repr)
    elapsed = time.perf_counter() - t0
    inp = {
        "shape": args.shape,
        "k": cl.k,
        "per_cluster": args.per_cluster,
        "dim": args.dim,
        "separation": args.separation,
        "seed": args.seed,
    }
    result = {"output": args.output, "n": cl.ds.n, "d": cl.ds.d}
    return _report(args, inp, "generator", result, elapsed)


def cmd_oracle(args) -> int:
    from .oracle import brute_explainable, brute_explanation, brute_unconstrained

    solver = f"brute_{args.which}"
    if args.which == "explanation":
        cl = read_clustering(args.input, args.label_col)
        t0 = time.perf_counter()
        out = brute_explanation(cl, args.budget)
        elapsed = time.perf_counter() - t0
        inp = _input(args, cl.ds, k=cl.k, s=args.budget)
        if out is None:
            return _report(args, inp, solver, {"feasible": False}, elapsed, code=1)
        removed, tree = out
        result = {"feasible": True, "removed": sorted(removed)}
        return _report(args, inp, solver, result, elapsed, tree=tree)
    ds, _ = read_dataset(args.input, args.label_col, require_labels=False)
    kind = CostKind(args.cost)
    t0 = time.perf_counter()
    if args.which == "explainable":
        res = brute_explainable(ds, args.k, kind)
        cost, tree = res.cost, res.tree
    else:
        cost, tree = brute_unconstrained(ds, args.k, kind), None
    elapsed = time.perf_counter() - t0
    inp = _input(args, ds, k=args.k, cost=args.cost)
    return _report(args, inp, solver, {"cost": cost}, elapsed, tree=tree)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeclust",
        description="Explainable clustering with threshold trees",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    csv_input = argparse.ArgumentParser(add_help=False)
    csv_input.add_argument("input")
    csv_input.add_argument("--label-col", default=DEFAULT_LABEL_COL)

    p = sub.add_parser(
        "check", parents=[csv_input], help="test whether a labeled CSV is explainable"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "explain", parents=[csv_input], help="repair a clustering by removing points"
    )
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "kernel", parents=[csv_input], help="shrink an instance, preserving the answer"
    )
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mapping", default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser(
        "fit", parents=[csv_input], help="optimal or approximate explainable clustering"
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cost", choices=["means", "medians"], default="means")
    p.add_argument("--method", choices=["branch", "dp", "approx"], default="dp")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("baseline", parents=[csv_input], help="unconstrained Lloyd baseline")
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
    p.add_argument("--label-col", default=DEFAULT_LABEL_COL)
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
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except (ValueError, LimitExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: a cost overflows a float: the coordinates are too large", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug is never a negative answer (exit 1)
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
