"""Recompute the pinned answers of every bank entry and write pinned.json.

Run from the repository root:  python3 bench/pin.py [workload ...]

The pinned values are the answers of the commit that defined the
benchmark; regenerate them only in a change that redefines the benchmark.
Where an entry fits the brute-force oracles' limits, the pinned optimum is
checked against them and a disagreement stops the script.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import treeclust  # noqa: E402
from treeclust import explainable, explanation, generate, oracle  # noqa: E402

import check  # noqa: E402
import workloads as wl  # noqa: E402

TC = SimpleNamespace(explanation=explanation, explainable=explainable, generate=generate,
                     Clustering=treeclust.Clustering, CostKind=treeclust.CostKind)


def pin_entry(workload: str, slot: int, b: int) -> dict:
    data, fp = wl.make_input(TC, workload, slot, b)
    if workload == "explain-greedy":
        return {"fp": fp, "removed": explanation.greedy_explain(data).removed_count}
    if workload == "explain-exact":
        if wl.EXACT_SLOTS[slot][0] == "small":
            value, _ = explanation.opt_explain(data)
            limits = oracle.BRUTE_EXPLANATION_MAX
            if data.ds.n <= limits["n"] and data.k <= limits["k"] and value <= limits["s"]:
                found = oracle.brute_explanation(data, value)
                if found is None or len(found[0]) != value:
                    raise SystemExit(f"oracle disagrees on {workload} {slot}:{b}")
            return {"fp": fp, "removed": value}
        kernel, _ = explanation.kernelize(data, wl.EXACT_S)
        res = explanation.exact_explain(kernel, wl.EXACT_S)
        return {"fp": fp, "removed": None if res is None else res.removed_count}
    solver, _, k, _, cost, _, _ = wl.FIT_SLOTS[slot]
    kind = treeclust.CostKind(cost)
    # solve_dp and solve_branching must agree; neither fits the oracle's
    # n <= 10 limit at these sizes
    opt = explainable.solve_branching(data, k, kind).cost
    if solver == "dp" and not check.close(explainable.solve_dp(data, k, kind).cost, opt):
        raise SystemExit(f"solve_dp and solve_branching disagree on fit {slot}:{b}")
    return {"fp": fp, "cost" if solver != "approx" else "full_opt": opt}


def main(argv: list[str]) -> None:
    path = HERE / "pinned.json"
    pinned = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or list(wl.SLOTS):
        pinned[workload] = {
            f"{slot}:{b}": pin_entry(workload, slot, b)
            for slot in range(len(wl.SLOTS[workload])) for b in range(wl.BANK[workload])
        }
        print(f"pinned {len(pinned[workload])} entries of {workload}", flush=True)
    path.write_text(json.dumps(pinned, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
