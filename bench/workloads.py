"""Seeded inputs, call sequences and output checks of the four workloads.

Inputs come from a fixed bank per workload: a list of slots (one instance
shape each) times BANK generator seeds per slot. The optimum of every bank
entry at the commit that defined this benchmark is pinned in
``pinned.json`` (made by ``pin.py``). A run's ``--seed`` chooses which bank
entries it uses, so the same seed gives the same inputs and the mix of
shapes is the same for every seed.

An *instance* is one workload call sequence on one input. Every instance
calls treeclust through module attributes (``explanation.greedy_explain``),
so the traced run's wrappers see the calls.
"""
from __future__ import annotations

import csv
import hashlib
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import check

BANK = {"explain-greedy": 32, "explain-exact": 64, "fit": 24}
# instances per slot in one run's pool; the pool repeats if a run gets
# through it, which a run at this commit does not
PER_SLOT = {"explain-greedy": 12, "explain-exact": 24, "fit": 8}

# Slot order is the cycle order. The slots fall into cost groups chosen so
# that the p50, p75 and p90 instance times fall inside a group of like
# instances and not on the gap between two groups, where the quantile would
# jump from run to run: explain-greedy and explain-exact cycle 3 cheap,
# 2 (exact: 3) middle and 3 (exact: 2) dear slots; fit cycles 5 cheap, 2
# middle, 3 upper and 2 dear ones.

# (shape, points per cluster, k, d, interior label flips)
GREEDY_SLOTS = [
    ("separated", 100, 3, 2, 2),   # cheap
    ("separated", 150, 3, 2, 3),   # middle
    ("separated", 150, 4, 2, 4),   # dear
    ("uniform", 100, 3, 2, 0),     # cheap
    ("uniform", 150, 3, 2, 0),     # middle
    ("separated", 100, 5, 3, 3),   # dear
    ("separated", 75, 4, 2, 3),    # cheap
    ("uniform", 140, 4, 3, 0),     # dear
]
# small: opt_explain on (k, per cluster, flips); kernel: kernelize(s=1) then
# exact_explain(kernel, 1) on (k, per cluster) with one flip. d = 2.
EXACT_SLOTS = [
    ("small", 2, 6, 1),     # cheap
    ("kernel", 3, 70, 1),   # middle
    ("small", 2, 7, 2),     # dear
    ("kernel", 3, 85, 1),   # middle
    ("small", 3, 6, 1),     # cheap
    ("kernel", 3, 100, 1),  # middle
    ("small", 3, 5, 2),     # dear
    ("kernel", 2, 100, 1),  # cheap
]
# (solver, n, k, d, cost, data shape, epsilon); means and medians alternate
FIT_SLOTS = [
    ("dp", 24, 3, 2, "means", "separated", None),         # cheap
    ("branch", 72, 3, 2, "medians", "uniform", None),     # middle
    ("approx", 66, 3, 2, "means", "separated", 0.1),      # upper
    ("branch", 105, 3, 2, "medians", "separated", None),  # dear
    ("approx", 90, 3, 2, "means", "uniform", 0.2),        # cheap
    ("approx", 66, 3, 2, "medians", "uniform", 0.1),      # upper
    ("dp", 28, 4, 2, "means", "uniform", None),           # cheap
    ("branch", 72, 3, 2, "medians", "separated", None),   # middle
    ("approx", 75, 3, 2, "means", "separated", 0.2),      # cheap
    ("branch", 120, 3, 2, "medians", "uniform", None),    # dear
    ("approx", 66, 3, 2, "means", "uniform", 0.1),        # upper
    ("dp", 30, 3, 3, "medians", "separated", None),       # cheap
]
SLOTS = {"explain-greedy": GREEDY_SLOTS, "explain-exact": EXACT_SLOTS, "fit": FIT_SLOTS}
GREEDY_KERNEL_S = 2
EXACT_S = 1


def gen_seed(workload: str, slot: int, b: int) -> int:
    offset = {"explain-greedy": 1, "explain-exact": 2, "fit": 3}[workload]
    return offset * 1_000_000 + slot * 1000 + b


def fingerprint(pts, labels=()) -> str:
    return hashlib.sha256(repr((pts, labels)).encode()).hexdigest()[:16]


def flip_interior(tc, cl, nflip: int, rng: random.Random):
    """Relabel ``nflip`` points that lie strictly inside their cluster along
    dimension 1, so that each flip forces one removal."""
    labels = list(cl.labels)
    pts = cl.ds.points
    used: set[int] = set()
    for j in range(nflip):
        c = j % cl.k + 1
        ids = sorted((i for i, lab in enumerate(cl.labels) if lab == c and i not in used),
                     key=lambda i: pts[i][0])
        quarter = len(ids) // 4
        i = ids[rng.randrange(max(quarter, 1), max(len(ids) - quarter - 1, quarter + 2))]
        used.add(i)
        labels[i] = rng.choice([lab for lab in range(1, cl.k + 1) if lab != c])
    return tc.Clustering(cl.ds, tuple(labels), cl.k)


def greedy_input(tc, slot: int, seed: int):
    shape, per, k, d, flips = GREEDY_SLOTS[slot]
    if shape == "uniform":
        return tc.generate.gen_uniform(k, per, d, seed)
    cl = tc.generate.gen_separated(k, per, d, 0.5, seed)
    return flip_interior(tc, cl, flips, random.Random(seed))


def exact_input(tc, slot: int, seed: int):
    _, k, per, flips = EXACT_SLOTS[slot]
    cl = tc.generate.gen_separated(k, per, 2, 0.5, seed)
    return flip_interior(tc, cl, flips, random.Random(seed))


def fit_input(tc, slot: int, seed: int):
    _, n, k, d, _, shape, _ = FIT_SLOTS[slot]
    if shape == "uniform":
        return tc.generate.gen_uniform(k, n // k, d, seed).ds
    return tc.generate.gen_separated(k, n // k, d, 0.3, seed).ds


@dataclass
class Outcome:
    problems: list[str]
    counters: dict[str, float]


class Instance:
    key = ""
    pin_problem = ""

    def probe_input(self):
        """Clustering whose root active set the traced run probes with best_cut."""
        return None


class GreedyInstance(Instance):
    def __init__(self, tc, key, cl, pinned):
        self.tc, self.key, self.cl, self.pinned = tc, key, cl, pinned

    def call(self):
        ex = self.tc.explanation
        return (ex.check_explainable(self.cl), ex.greedy_explain(self.cl),
                ex.kernelize(self.cl, GREEDY_KERNEL_S))

    def check(self, out) -> Outcome:
        ok, res, (kernel, mapping) = out
        cl, pts = self.cl, self.cl.ds.points
        problems = check.check_explanation(pts, cl.labels, res.removed, res.tree.root,
                                           at_most=self.pinned["removed"])
        if ok != (self.pinned["removed"] == 0):
            problems.append(f"check_explainable says {ok}")
        problems += check.check_kernel(pts, cl.labels, cl.k, GREEDY_KERNEL_S,
                                       kernel.ds.points, kernel.labels, mapping)
        leaves = check.route(res.tree.root, range(len(pts)), pts)
        return Outcome(problems, {
            "removed": len(res.removed), "points_in": len(pts),
            "explainable_cost": check.partition_cost([ids for _, ids in leaves], pts, False),
            "reference_cost": check.labeling_cost(cl.labels, pts),
            "kernel_in": len(pts), "kernel_out": kernel.ds.n,
        })

    def probe_input(self):
        return self.cl


class ExactInstance(Instance):
    def __init__(self, tc, key, kind, cl, pinned):
        self.tc, self.key, self.kind, self.cl, self.pinned = tc, key, kind, cl, pinned

    def call(self):
        ex = self.tc.explanation
        if self.kind == "small":
            return ex.opt_explain(self.cl)
        kernel, mapping = ex.kernelize(self.cl, EXACT_S)
        return kernel, mapping, ex.exact_explain(kernel, EXACT_S)

    def check(self, out) -> Outcome:
        cl, pinned = self.cl, self.pinned["removed"]
        if self.kind == "small":
            value, res = out
            work, problems = cl, [] if value == len(res.removed) else ["count disagrees with set"]
            counters = {}
        else:
            work, mapping, res = out
            problems = check.check_kernel(cl.ds.points, cl.labels, cl.k, EXACT_S,
                                          work.ds.points, work.labels, mapping)
            counters = {"kernel_in": cl.ds.n, "kernel_out": work.ds.n}
            if (res is None) != (pinned is None):
                problems.append(f"feasibility {res is not None}, pinned {pinned is not None}")
                res = None
        counters["points_in"] = cl.ds.n
        if res is None:
            return Outcome(problems, {**counters, "removed": 0})
        pts = work.ds.points
        problems += check.check_explanation(pts, work.labels, res.removed, res.tree.root,
                                            expected=pinned)
        leaves = check.route(res.tree.root, range(len(pts)), pts)
        return Outcome(problems, {
            **counters, "removed": len(res.removed),
            "explainable_cost": check.partition_cost([ids for _, ids in leaves], pts, False),
            "reference_cost": check.labeling_cost(work.labels, pts),
        })

    def probe_input(self):
        return self.cl


class FitInstance(Instance):
    def __init__(self, tc, key, slot, ds, seed, pinned):
        self.tc, self.key, self.ds, self.seed, self.pinned = tc, key, ds, seed, pinned
        self.solver, _, self.k, _, cost, _, self.epsilon = FIT_SLOTS[slot]
        self.kind = tc.CostKind(cost)

    def call(self):
        xb, ds, k, kind = self.tc.explainable, self.ds, self.k, self.kind
        if self.solver == "dp":
            res = xb.solve_dp(ds, k, kind)
        elif self.solver == "branch":
            res = xb.solve_branching(ds, k, kind)
        else:
            res = xb.solve_approx(ds, k, kind, self.epsilon)
        return res, xb.lloyd_baseline(ds, k, kind, self.seed)

    def check(self, out) -> Outcome:
        res, lloyd = out
        pts, k = self.ds.points, self.k
        medians = self.kind.value == "medians"
        counters = {"points_in": len(pts), "explainable_cost": res.cost,
                    "reference_cost": lloyd.cost}
        if self.solver == "approx":
            problems = check.check_approx(pts, k, medians, self.epsilon, res.tree.root,
                                          res.kept, res.removed, res.cost,
                                          self.pinned["full_opt"])
            counters.update(removed=len(res.removed), approx_calls=1,
                            approx_fallbacks=int(not any(res.rank_grid)))
        else:
            problems = check.check_explainable(pts, k, medians, res.tree.root, res.clusters,
                                               res.cost, pinned=self.pinned["cost"])
            counters["removed"] = 0
        problems += check.check_lloyd(pts, k, medians, lloyd.labels, lloyd.cost)
        return Outcome(problems, counters)


def _pinned_entry(workload, key, fp, pinned):
    entry = pinned.get(workload, {}).get(key)
    if entry is None:
        return None, f"no pinned answer for {workload} {key}"
    if entry["fp"] != fp:
        return None, f"input {workload} {key} differs from the pinned one"
    return entry, ""


def bank_pool(workload: str, seed: int) -> list[tuple[int, int]]:
    """(slot, bank index) per pool position; slots interleave."""
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.sample(range(BANK[workload]), PER_SLOT[workload]) for _ in SLOTS[workload]]
    return [(slot, picks[slot][j]) for j in range(PER_SLOT[workload])
            for slot in range(len(SLOTS[workload]))]


def make_input(tc, workload: str, slot: int, b: int):
    """The generated input and its fingerprint for one bank entry."""
    s = gen_seed(workload, slot, b)
    if workload == "fit":
        ds = fit_input(tc, slot, s)
        return ds, fingerprint(ds.points)
    cl = (greedy_input if workload == "explain-greedy" else exact_input)(tc, slot, s)
    return cl, fingerprint(cl.ds.points, cl.labels)


def build_bank_instances(tc, workload: str, seed: int, pinned: dict) -> list[Instance]:
    out: list[Instance] = []
    for slot, b in bank_pool(workload, seed):
        key = f"{slot}:{b}"
        data, fp = make_input(tc, workload, slot, b)
        entry, problem = _pinned_entry(workload, key, fp, pinned)
        entry = entry or {"removed": None, "cost": None, "full_opt": None}
        if workload == "explain-greedy":
            inst = GreedyInstance(tc, key, data, entry)
        elif workload == "explain-exact":
            inst = ExactInstance(tc, key, EXACT_SLOTS[slot][0], data, entry)
        else:
            inst = FitInstance(tc, key, slot, data, gen_seed(workload, slot, b), entry)
        inst.pin_problem = problem
        out.append(inst)
    return out


# ---------------------------------------------------------------------------
# CLI workload: one `python -m treeclust ...` process per instance.

CLI_FILE_SETS = 16
CLI_K, CLI_PER, CLI_D = 3, 8, 2


def write_labeled_csv(path: Path, cl) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(cl.ds.d)] + ["cluster"])
        for p, lab in zip(cl.ds.points, cl.labels):
            writer.writerow([repr(c) for c in p] + [lab])


class CliInstance(Instance):
    def __init__(self, tc, key, args, expected_exit, verify, env, limit):
        self.tc, self.key, self.args = tc, key, args
        self.expected_exit, self.verify, self.env, self.limit = expected_exit, verify, env, limit

    def call(self):
        proc = subprocess.run([sys.executable, "-m", "treeclust", *self.args], env=self.env,
                              capture_output=True, text=True, timeout=self.limit)
        return proc.returncode, proc.stdout

    def call_in_process(self):
        """The same argv through ``treeclust.cli.main`` in this process."""
        import contextlib
        import io
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tc.cli.main(self.args)
        return code, out.getvalue()

    def check(self, out) -> Outcome:
        code, stdout = out
        problems = check.check_exit(code, self.expected_exit)
        if problems or self.verify is None:
            return Outcome(problems, {})
        return self.verify(stdout)


def build_cli_instances(tc, seed: int, out_dir: Path, env: dict, limit: float) -> list[Instance]:
    """Write CLI_FILE_SETS sets of CSV inputs and return one cycle of
    subcommands per set. The two exact explanations are the dear fifth of
    the cycle, so that p90 falls inside them and not on their edge."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out: list[Instance] = []
    for f in range(CLI_FILE_SETS):
        s = random.Random(f"cli:{seed}:{f}").randrange(1 << 31)
        clean = tc.generate.gen_separated(CLI_K, CLI_PER, CLI_D, 1.0, s)
        noisy = flip_interior(tc, clean, 1, random.Random(s))
        xor = tc.generate.gen_xor(CLI_K * CLI_PER // 2, CLI_D, s)
        paths = {name: out_dir / f"{name}-{f}.csv" for name in ("clean", "noisy", "xor")}
        for name, cl in (("clean", clean), ("noisy", noisy), ("xor", xor)):
            write_labeled_csv(paths[name], cl)
        gen_out, kernel_out = out_dir / f"gen-{f}.csv", out_dir / f"kernel-{f}.csv"
        p = {name: str(path) for name, path in paths.items()}
        commands = [
            ("gen", ["gen", "--shape", "separated", "--k", str(CLI_K), "--per-cluster",
                     str(CLI_PER), "--dim", str(CLI_D), "--seed", str(s), "--output",
                     str(gen_out)], 0, _verify_gen(gen_out)),
            ("check-yes", ["check", p["clean"]], 0, _verify_check(True)),
            ("check-no", ["check", p["xor"]], 1, _verify_check(False)),
            ("explain-greedy", ["explain", p["noisy"], "--method", "greedy"], 0,
             _verify_explain(noisy, None)),
            ("explain-exact", ["explain", p["noisy"], "--method", "exact", "--budget",
                               str(EXACT_S)], 0, _verify_explain(noisy, EXACT_S)),
            ("explain-exact-dot", ["explain", p["noisy"], "--method", "exact", "--budget",
                                   str(EXACT_S), "--format", "dot"], 0, _verify_dot(CLI_K)),
            ("fit-dp", ["fit", p["clean"], "--k", str(CLI_K), "--method", "dp"], 0,
             _verify_fit(clean)),
            ("fit-dot", ["fit", p["clean"], "--k", str(CLI_K), "--format", "dot"], 0,
             _verify_dot(CLI_K)),
            ("kernel", ["kernel", p["noisy"], "--budget", str(EXACT_S), "--output",
                        str(kernel_out)], 0, _verify_kernel(kernel_out)),
            ("usage-error", ["fit", p["clean"]], 2, None),
        ]
        for name, args, code, verify in commands:
            out.append(CliInstance(tc, f"{f}:{name}", args, code, verify, env, limit))
    return out


def _json_verifier(fn):
    def verify(stdout: str) -> Outcome:
        report, problems = check.parse_report(stdout)
        if report is None:
            return Outcome(problems, {})
        try:
            return fn(report)
        except (KeyError, TypeError, ValueError) as exc:
            return Outcome([f"malformed report: {exc!r}"], {})
    return verify


def _verify_gen(path: Path):
    def fn(report):
        with open(path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        n = CLI_K * CLI_PER
        ok = report["result"]["n"] == n and rows == n
        return Outcome([] if ok else [f"gen wrote {rows} rows, reported {report['result']['n']}"], {})
    return _json_verifier(fn)


def _verify_check(expected: bool):
    def fn(report):
        got = report["result"]["explainable"]
        return Outcome([] if got is expected else [f"explainable {got}, expected {expected}"], {})
    return _json_verifier(fn)


def _verify_explain(cl, budget):
    pts = cl.ds.points

    def fn(report):
        problems = check.check_explanation_json(pts, cl.labels, report)
        removed = report["result"]["removed_count"]
        if budget is not None and removed > budget:
            problems.append(f"exact removed {removed} > budget {budget}")
        return Outcome(problems, {"removed": removed, "points_in": len(pts)})
    return _json_verifier(fn)


def _verify_fit(cl):
    pts = cl.ds.points

    def fn(report):
        leaves = check.route_json(report["tree"]["tree"], range(len(pts)), pts)
        cost = report["result"]["cost"]
        problems = []
        if {str(lab): ids for lab, ids in leaves} != report["result"]["clusters"]:
            problems.append("reported clusters differ from the routed leaves")
        recomputed = check.partition_cost([ids for _, ids in leaves], pts, False)
        if not check.close(cost, recomputed):
            problems.append(f"cost {cost!r} differs from recomputed {recomputed!r}")
        return Outcome(problems, {"explainable_cost": cost,
                                  "reference_cost": check.labeling_cost(cl.labels, pts)})
    return _json_verifier(fn)


def _verify_dot(k):
    def verify(stdout: str) -> Outcome:
        ok = stdout.startswith("digraph") and 1 <= stdout.count("shape=ellipse") <= k
        return Outcome([] if ok else ["output is not a DOT tree with 1..k leaves"], {})
    return verify


def _verify_kernel(path: Path):
    def fn(report):
        res = report["result"]
        with open(path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        problems = []
        bound = 2 * (EXACT_S + 1) * CLI_D * CLI_K
        if res["kernel_size"] > bound or rows != res["kernel_size"]:
            problems.append(f"kernel of {rows} rows, reported {res['kernel_size']}, bound {bound}")
        return Outcome(problems, {"kernel_in": res["original_size"], "kernel_out": res["kernel_size"]})
    return _json_verifier(fn)
