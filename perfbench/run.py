"""dpi2 benchmark: seeded workloads with checked outputs and a traced breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 36 --trace 0

``--workload all`` runs every workload, each in a fresh process.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is 0
only when every output was correct.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy  # a dependency: imported before set-up is timed, and not counted

from tracing import PER_LAYER, Tracer, layer_metrics, nesting_errors
from workloads import WORKLOADS, Reference, Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = json.loads((HERE / "seeds.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 5

# End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cert_moves": "count",
    "cert_bytes": "B",
    "decided_ratio": "ratio",
}


def import_dpi2():
    """A fresh import of dpi2 from this checkout's src/ (re-executes it)."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "dpi2" or n.startswith("dpi2.")]:
        del sys.modules[name]
    api = importlib.import_module("dpi2")
    importlib.import_module("dpi2.cli")  # not imported by the package itself
    if not Path(api.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"dpi2 imported from {api.__file__}, not from {src}")
    return api


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of n tasks beyond it."""
    return max(1, math.floor(100 * (n - 10) / n))


class Pass:
    """One run of the whole task list: per-task seconds and checked counts."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.durations: list[float] = []
        self.moves = self.nbytes = self.decided = self.failed = 0
        self.spans: list[list] = []

    @property
    def wall(self) -> float:
        return sum(self.durations)


def run_pass(spec, api, ref, tasks, tracer=None) -> Pass:
    p = Pass(tracer is not None)
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            out = spec.run(api, task)
            p.durations.append(time.perf_counter() - t0)
            res = spec.check(ref, task, out)
        except Exception:  # a task that raises counts as failed, the run goes on
            if len(p.durations) == i:
                p.durations.append(time.perf_counter() - t0)
            res = Result(problems=[traceback.format_exc(limit=3).strip()])
        out = None  # free the certificate before the next task starts
        p.moves += res.moves
        p.nbytes += res.nbytes
        p.decided += res.decided
        if res.problems:
            p.failed += 1
            print(f"FAIL {task.label}: {'; '.join(res.problems)}", file=sys.stderr)
    if tracer is not None:
        p.spans, tracer.spans = tracer.spans, []
    return p


def measure(args, workdir: Path):
    """Set up SETUP_REPEATS times, then run passes for --seconds seconds."""
    spec = WORKLOADS[args.workload]
    setup_s, gen_s = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        api = import_dpi2()
        tasks, gen = spec.make(api, args.seed, workdir)
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(gen)
    ref = Reference(api)
    tracer = Tracer() if args.trace else None

    # Untraced and traced passes alternate when tracing; one of each at least,
    # and another round only while it is expected to end within --seconds.
    kinds = [False, True] if args.trace else [False]
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for traced in kinds:
            if traced:
                tracer.install(api)
            try:
                passes.append(run_pass(spec, api, ref, tasks, tracer if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
        used, last = time.perf_counter() - start, time.perf_counter() - t_round
        if used + last > args.seconds:
            break
    return tasks, passes, setup_s, gen_s


def end_to_end(tasks, plain: list[Pass], setup_s: list[float]) -> tuple[dict, str]:
    n = len(tasks)
    per_task = [statistics.median(p.durations[i] for p in plain) for i in range(n)]
    tail = tail_percentile(n)
    first = plain[0]
    values = {
        "wall_s": statistics.median(p.wall for p in plain),
        "task_p50_s": statistics.median(per_task),
        "task_tail_s": statistics.quantiles(per_task, n=100, method="inclusive")[tail - 1],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cert_moves": first.moves,
        "cert_bytes": first.nbytes,
        "decided_ratio": first.decided / n,
    }
    return values, f"task_tail_s is p{tail} of {n} per-task medians"


def per_layer(plain: list[Pass], traced: list[Pass], gen_s: list[float]) -> dict:
    layers = [layer_metrics(p.spans) for p in traced]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values["generate.gen_random_s"] = statistics.median(gen_s)
    values["tracing_overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in plain
    )
    return values


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_one(args) -> int:
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        tasks, passes, setup_s, gen_s = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = len(tasks) * len(passes)
    failed = sum(p.failed for p in passes)
    problems = []
    if len({(p.moves, p.nbytes, p.decided) for p in passes}) > 1:
        problems.append("passes over the same inputs gave different counts")
    for p in traced:
        problems += nesting_errors(p.spans)

    env = environment()
    print(
        f"perfbench {args.workload} seed={args.seed} tasks={len(tasks)} "
        f"passes={len(plain)} untraced + {len(traced)} traced, "
        f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}"
    )
    if args.trace:
        values = per_layer(plain, traced, gen_s)
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
        out_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        out_path.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, **env,
                        "tasks": [t.label for t in tasks],
                        "spans": [p.spans for p in traced]}),
            encoding="utf-8",
        )
        print(f"spans written to {out_path.relative_to(ROOT)}")
    else:
        values, note = end_to_end(tasks, plain, setup_s)
        units = END_TO_END
        print(note)
    for name, unit in units.items():
        print(f"  {name:30s} {values[name]:.6g} {unit}")
    print(f"  {'fail_ratio':30s} {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except ImportError as exc:
        print(f"perfbench: cannot import dpi2 from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
