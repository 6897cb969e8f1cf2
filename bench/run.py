"""treeclust benchmark: four seeded closed-loop workloads.

Usage, from the repository root:

    python3 bench/run.py --workload explain-greedy --seed 1 --seconds 25 --trace 0

One process runs one workload: a single client runs one instance at a time,
each right after the previous one ends, until the instance times add up to
``--seconds``. Every output is checked outside the timed region. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print the same metrics for
people, plus the tail percentile, the sample count and the failed ratio.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with every public treeclust function wrapped in a
span, and reports the per-layer metrics; spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Times are reported in reference seconds. The speed of a shared host drifts
(by up to 40 % over minutes on the 2-core VM that defined the benchmark),
and the drift moves every pure-Python workload alike. So a fixed loop is
timed right after every instance and every set-up, and each wall time is
scaled by ``REF_LOOP_S / loop time`` around it. A reference second is a
wall second on a host where the loop takes ``REF_LOOP_S``. The raw wall
figures and the loop time are printed above the result line.

The program is imported from ``src/``; nothing is installed. Without
``src/treeclust`` the script exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("explain-greedy", "explain-exact", "fit", "cli")
SETUP_REPS = 7
INSTANCE_LIMIT_S = 20.0
# No instance starts after this many seconds from process start, so that a
# slow program still ends within three minutes.
RUN_DEADLINE_S = 110.0
# The tail is the highest of these percentiles with at least ten instances
# beyond it.
TAIL_LADDER = (90, 75, 50)
# Median time of speed_loop() on the 2-core x86 VM (2.1 GHz, Python 3.11.7)
# that defined the benchmark.
REF_LOOP_S = 0.0037


def speed_loop() -> float:
    """Time a fixed pure-Python integer and float loop. It allocates nothing,
    so its time follows the host's speed and not the heap state the program
    left behind; on the reference host its ratio to the solvers' times
    stayed within 3 % while the host's speed moved by 40 %."""
    t0 = time.perf_counter()
    acc, x = 0.0, 1
    for _ in range(15000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += 1e-9 if x & 1 else -1e-9
    return time.perf_counter() - t0


def to_reference(times: list[float], loops: list[float]) -> list[float]:
    """Scale each wall time by the host speed around it: the median loop
    time of the instance and its five neighbours on each side."""
    return [t * REF_LOOP_S / statistics.median(loops[max(0, i - 5):i + 6])
            for i, t in enumerate(times)]


class InstanceTimeout(BaseException):
    """Raised by SIGALRM in an instance over the limit; a BaseException so
    that no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise InstanceTimeout


def limited(fn, in_process: bool):
    """Call fn under the per-instance time limit. CLI instances enforce the
    limit through the subprocess timeout instead of a signal."""
    if not in_process:
        return fn()
    signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Phase:
    attempted: int = 0
    failed: int = 0
    timed: float = 0.0
    times: list[float] = field(default_factory=list)
    keys: list[str] = field(default_factory=list)
    loops: list[float] = field(default_factory=list)  # speed_loop() after each time
    inproc: list[float] = field(default_factory=list)  # cli: in-process main
    counters: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    probes: int = 0

    def fail(self, key: str, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{key}: {msg}")

    def ref_times(self) -> list[float]:
        return to_reference(self.times, self.loops)

    def ref_inproc(self) -> list[float]:
        return to_reference(self.inproc, self.loops)


def per_s(times: list[float]) -> float:
    return len(times) / sum(times) if times else 0.0


def load_program():
    sys.path.insert(0, str(SRC))
    import treeclust
    from treeclust import cli, explainable, explanation, generate
    return SimpleNamespace(explanation=explanation, explainable=explainable, generate=generate,
                           cli=cli, Clustering=treeclust.Clustering, CostKind=treeclust.CostKind)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe(env) -> float:
    """Wall time of a fresh interpreter that imports treeclust."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import treeclust"], env=env, check=True,
                   timeout=INSTANCE_LIMIT_S)
    return time.perf_counter() - t0


def build_pool(wl, tc, workload, seed, pinned, env):
    if workload == "cli":
        return wl.build_cli_instances(tc, seed, OUT / "cli", env, INSTANCE_LIMIT_S)
    return wl.build_bank_instances(tc, workload, seed, pinned)


def setup(wl, tc, workload, seed, pinned, env):
    """Input generation, CSV writing and a fresh-interpreter import (which
    also leaves the bytecode warm), SETUP_REPS times; the last pool is used."""
    times, imports, loops = [], [], []
    pool = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        pool = build_pool(wl, tc, workload, seed, pinned, env)
        imports.append(import_probe(env))
        times.append(time.perf_counter() - t0)
        loops.append(speed_loop())
    return pool, times, imports, loops


def run_phase(pool, seconds, deadline, *, in_process, cli_in_process=False, tracer=None,
              probe=None) -> Phase:
    """Closed loop over the pool until the instance times reach ``seconds``."""
    ph = Phase()
    i = 0
    while ph.timed < seconds and time.monotonic() < deadline:
        inst = pool[i % len(pool)]
        i += 1
        ph.attempted += 1
        call = inst.call
        if tracer is not None:
            tracer.instance = i
            call = lambda inst=inst: tracer.call("instance", inst.call)  # noqa: E731
        t0 = time.perf_counter()
        try:
            out = limited(call, in_process)
        except (InstanceTimeout, subprocess.TimeoutExpired):
            ph.timed += time.perf_counter() - t0
            ph.fail(inst.key, f"over the {INSTANCE_LIMIT_S} s instance limit")
            continue
        except Exception as exc:  # a raising instance is a failed instance
            ph.timed += time.perf_counter() - t0
            ph.fail(inst.key, f"raised {exc!r}")
            continue
        elapsed = time.perf_counter() - t0
        ph.timed += elapsed
        ph.times.append(elapsed)
        ph.keys.append(inst.key)
        outs = [out]
        if cli_in_process:
            call = inst.call_in_process
            if tracer is not None:
                call = lambda inst=inst: tracer.call("instance", inst.call_in_process)  # noqa: E731
            t1 = time.perf_counter()
            try:
                outs.append(limited(call, True))
            except (InstanceTimeout, Exception) as exc:
                ph.times.pop()
                ph.keys.pop()
                ph.fail(inst.key, f"in-process main raised {exc!r}")
                continue
            ph.inproc.append(time.perf_counter() - t1)
        ph.loops.append(speed_loop())
        if probe is not None and inst.probe_input() is not None:
            cl = inst.probe_input()
            probe(cl, set(range(cl.ds.n)))
            ph.probes += 1
        problems = [inst.pin_problem] if inst.pin_problem else []
        for o in outs:
            try:
                outcome = inst.check(o)
            except Exception as exc:  # a malformed output fails the check
                problems.append(f"checker raised {exc!r}")
                continue
            problems += outcome.problems
        if problems:
            ph.fail(inst.key, "; ".join(problems))
            continue
        for name, value in outcome.counters.items():
            ph.counters[name] = ph.counters.get(name, 0) + value
    return ph


def tail(times: list[float]) -> tuple[int, float]:
    s = sorted(times)
    n = len(s)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, s[rank - 1]
    return 50, statistics.median(s)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(ph: Phase, setup_times, workload) -> tuple[dict, list[str]]:
    c = ph.counters
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    times = ph.ref_times()
    pct, tail_value = tail(times) if times else (50, 0.0)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "instances_per_s": (per_s(times), "1/s"),
        "instance_s.p50": (statistics.median(times) if times else 0.0, "s"),
        "instance_s.tail": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "quality.removed_ratio": (ratio(c.get("removed", 0), c.get("points_in", 0)), "ratio"),
        "quality.price_ratio": (ratio(c.get("explainable_cost", 0.0), c.get("reference_cost", 0.0)),
                                "ratio"),
    }
    notes = [f"instance_s.tail is p{pct} of {len(times)} instances",
             f"failed_ratio {ratio(ph.failed, ph.attempted)} ({ph.failed}/{ph.attempted})",
             f"wall: {per_s(ph.times):.6g} instances/s, p50 "
             f"{statistics.median(ph.times) if ph.times else 0.0:.6g} s; speed loop median "
             f"{statistics.median(ph.loops) if ph.loops else 0.0:.6g} s "
             f"(reference {REF_LOOP_S} s)"]
    return metrics, notes


def per_layer(ph_a: Phase, ph_b: Phase, tracer, generate_s, imports, workload):
    n = max(len(ph_b.times), 1)
    c = ph_b.counters
    # layer times of the traced phase, in reference seconds per instance
    scale = REF_LOOP_S / statistics.median(ph_b.loops) if ph_b.loops else 1.0

    def each(value):
        return value / n

    def each_s(value):
        return value * scale / n

    if workload == "cli":
        overhead = ratio(per_s(ph_a.ref_inproc()), per_s(ph_b.ref_inproc()))
        a_sub, a_main = ph_a.ref_times(), ph_a.ref_inproc()
        process = ph_a.ref_times() + ph_b.ref_times()
        startup = statistics.median(w - m for w, m in zip(a_sub, a_main)) if a_sub else 0.0
    else:
        overhead = ratio(per_s(ph_a.ref_times()), per_s(ph_b.ref_times()))
        process, startup = [], 0.0
    ct = tracer
    metrics = {
        "core.cluster_cost.calls": (each(ct.calls("core.cluster_cost")), "count"),
        "core.cluster_cost.points": (each(ct.totals["core.cluster_cost"][3]), "count"),
        "core.cluster_cost.s": (each_s(ct.total("core.cluster_cost")), "s"),
        "tree.tree_evaluate.calls": (each(ct.calls("tree.tree_evaluate")), "count"),
        "tree.tree_evaluate.s": (each_s(ct.total("tree.tree_evaluate")), "s"),
        "explanation.greedy_explain.calls": (each(ct.calls("explanation.greedy_explain")), "count"),
        "explanation.greedy_explain.self_s": (each_s(ct.self_time("explanation.greedy_explain")), "s"),
        "explanation.check_explainable.self_s":
            (each_s(ct.self_time("explanation.check_explainable")), "s"),
        "explanation.best_cut.s":
            (ratio(ct.total("explanation.best_cut") * scale, ph_b.probes), "s"),
        "explanation.exact_explain.calls": (each(ct.calls("explanation.exact_explain")), "count"),
        "explanation.exact_explain.self_s": (each_s(ct.self_time("explanation.exact_explain")), "s"),
        "explanation.opt_explain.self_s": (each_s(ct.self_time("explanation.opt_explain")), "s"),
        "explanation.kernelize.s": (each_s(ct.total("explanation.kernelize")), "s"),
        "explanation.kernelize.shrink_ratio":
            (ratio(c.get("kernel_out", 0), c.get("kernel_in", 0)), "ratio"),
        "explainable.solve_dp.self_s": (each_s(ct.self_time("explainable.solve_dp")), "s"),
        "explainable.solve_branching.self_s":
            (each_s(ct.self_time("explainable.solve_branching")), "s"),
        "explainable.solve_approx.self_s": (each_s(ct.self_time("explainable.solve_approx")), "s"),
        "explainable.solve_approx.fallback_ratio":
            (ratio(c.get("approx_fallbacks", 0), c.get("approx_calls", 0)), "ratio"),
        "explainable.lloyd_baseline.s": (each_s(ct.total("explainable.lloyd_baseline")), "s"),
        "serialize.tree_to_json_obj.s": (each_s(ct.total("serialize.tree_to_json_obj")), "s"),
        "serialize.tree_to_dot.s": (each_s(ct.total("serialize.tree_to_dot")), "s"),
        "cli.process_s": (statistics.median(process) if process else 0.0, "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.read_s": (each_s(ct.total("cli.read_dataset")), "s"),
        "cli.main.self_s": (each_s(ct.self_time("cli.main")), "s"),
        "cli.startup_s": (startup, "s"),
        "generate.s": (generate_s * scale / SETUP_REPS, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    notes = [f"{len(ph_b.times)} traced instances, {len(tracer.spans)} spans"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "treeclust" / "__init__.py").is_file():
        print(f"error: {SRC / 'treeclust'} not found; run from a treeclust checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import check
    import spans
    import workloads as wl

    broken = check.smoke()
    if broken:
        print(f"error: output checker misjudges {broken}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    tc = load_program()
    env = child_env()
    pinned = json.loads((HERE / "pinned.json").read_text())
    in_process = args.workload != "cli"

    tracer = spans.Tracer()
    tracer.instance = "setup"
    if args.trace:
        tracer.install()
    try:
        pool, setup_times, imports, setup_loops = setup(wl, tc, args.workload, args.seed, pinned,
                                                        env)
    finally:
        tracer.uninstall()
    generate_s = sum(t[1] for name, t in tracer.totals.items() if name.startswith("generate."))
    tracer.totals.clear()

    def setup_scale(phases):
        # set-up is too short to judge the host speed from its own loops
        loops = setup_loops + [x for p in phases for x in p.loops]
        return REF_LOOP_S / statistics.median(loops)

    if not args.trace:
        ph = run_phase(pool, args.seconds, deadline, in_process=in_process)
        phases = [ph]
        setup_ref = [t * setup_scale(phases) for t in setup_times]
        metrics, notes = end_to_end(ph, setup_ref, args.workload)
    else:
        half = args.seconds / 2
        cli = args.workload == "cli"
        ph_a = run_phase(pool, half, deadline, in_process=in_process, cli_in_process=cli)
        tracer.install()
        try:
            probe = None if cli else tc.explanation.best_cut
            ph_b = run_phase(pool, half, deadline, in_process=in_process, cli_in_process=cli,
                             tracer=tracer, probe=probe)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        phases = [ph_a, ph_b]
        imports_ref = [t * setup_scale(phases) for t in imports]
        metrics, notes = per_layer(ph_a, ph_b, tracer, generate_s, imports_ref, args.workload)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for err in p.errors:
            print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} instances, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = {"setup": list(zip(setup_times, setup_loops)),
               "instances": [list(zip(p.keys, p.times, p.loops)) for p in phases], "notes": notes}
    (OUT / f"samples-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
