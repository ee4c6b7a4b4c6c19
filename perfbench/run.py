#!/usr/bin/env python3
"""Benchmark of the cdscover CLI on three seeded workloads.

One run drives ``cdscover.cli.main(argv)`` in-process, with ``--json``, on
inputs drawn from ``--seed``. A separate process plans the run: it draws
the inputs and computes their reference answers (``workloads``). Set-up,
which is timed, imports the package, loads the catalog, and makes and
writes the inputs with the package's own generators, under
``.bench_work/`` in the checkout. The run repeats whole passes over the
workload's operations for ``run_seconds`` of BENCHMARK.json, then checks
every output against the reference answers and prints one JSON object as
its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates plain and traced passes and reports per-layer metrics.
A run whose outputs are not all correct exits with status 1.

    python3 perfbench/run.py --workload analyze --seed 1 --trace 0
    python3 perfbench/run.py                    # every workload, both modes
    python3 perfbench/run.py --steadiness 10    # spread of each metric over 10 seeds

The package is imported from ``src/`` next to this directory; without it
the run exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP read their thread counts when numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
RUN_SECONDS = SPEC["run_seconds"]
# a run takes its measurement time plus planning, set-up and one pass
RUN_TIMEOUT_S = 170
# timed set-ups before each pass; more samples steady the median set-up
SETUPS_PER_PASS = 2
PLAN_TIMEOUT_S = 60
# 1.7-3 ms a call; REFERENCE_LOOP_S is its least CPU time on this 2-core
# host (Python 3.11.7, numpy 2.4.6), and timings are reported at that speed
REFERENCE_LOOP_STEPS = 3000
REFERENCE_LOOP_S = 1.7e-3
REFERENCE_SMALL = np.arange(36, dtype=np.int64).reshape(6, 6)
REFERENCE_LARGE = np.arange(50_000, dtype=np.int64)


def cpu_seconds() -> float:
    """CPU time of this process, its threads, and the children it has
    waited for.

    The machine is shared: other processes' load stretched the wall time
    of a fixed loop from 25 ms to 76 ms, while its CPU time stayed within
    25-32 ms. Every timing of the run is CPU time; the children's share
    keeps work that the program hands to a subprocess counted.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_loop() -> float:
    """CPU time of a fixed mix of the work cdscover does: tuple keys,
    dict updates and set inserts (about two thirds of the time), then
    small mod-p matrix products and one pass over a larger array. Run
    just before each timed set-up and operation."""
    start = cpu_seconds()
    counts, seen = {}, set()
    for i in range(REFERENCE_LOOP_STEPS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset((i % 7, i % 11)))
    for i in range(20):
        np.mod(REFERENCE_SMALL @ REFERENCE_SMALL.T + i, 7)
    np.bincount(np.mod(REFERENCE_LARGE * 31, 1009))
    return cpu_seconds() - start


def timed(fn):
    """Call ``fn``; return its result and its CPU time scaled to an
    uncontended core.

    CPU time alone does not shut out the other load on the host: it
    slows this process's instructions as well, by up to 1.8x, in spells
    of milliseconds whose share drifts over minutes. On 2.5 minutes of
    analyze passes over the same inputs, in windows of 8 passes,
    ops_per_s from each operation's least time ranged over 38% of its
    median. The reference loop, timed just before ``fn``, gives the
    slowdown of that moment; dividing it out, and taking each
    operation's median over the passes, left a range of 1%.
    """
    loop_s = reference_loop()
    start = cpu_seconds()
    result = fn()
    return result, (cpu_seconds() - start) * REFERENCE_LOOP_S / loop_s


def fresh_import():
    """Import cdscover from this checkout's src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "cdscover" or n.startswith("cdscover.")]:
        del sys.modules[name]
    cc = importlib.import_module("cdscover")
    cli = importlib.import_module("cdscover.cli")
    if Path(cc.__file__).resolve().parent != SRC / "cdscover":
        raise SystemExit(f"imported cdscover from {cc.__file__}, not from {SRC}")
    return cc, cli


def plan(name: str, seed: int, workdir: Path) -> tuple[list[dict], list[workloads.Op]]:
    """Draw the inputs and their reference answers in a separate process,
    so that neither adds to this process's time or peak memory."""
    argv = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(workdir)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PLAN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"planning {name} seed {seed} exited {proc.returncode}")
    data = json.loads(proc.stdout)
    return data["files"], [workloads.Op(**op) for op in data["ops"]]


def set_up(files: list[dict], workdir: Path, checker: "Checker", tracer: layers.Tracer | None = None):
    """Import the package, load the catalog, make the inputs again from
    their recipes and write them. Returns the CLI and the set-up's time.

    Garbage left by earlier passes and set-ups is collected first, so that
    its collection is not timed as part of this set-up.
    """
    gc.collect()

    def build():
        cc, cli = fresh_import()
        if tracer is not None:
            tracer.install()
        try:
            for fixture in cc.catalog.INSTANCE_NAMES:
                cc.catalog.builtin_instance(fixture)
            for fixture in cc.catalog.SCHEME_NAMES:
                cc.catalog.builtin_scheme(fixture)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            return cli, workloads.write_inputs(cc, files)
        finally:
            if tracer is not None:
                tracer.uninstall()

    (cli, written), elapsed = timed(build)
    if written != [f["text"] for f in files]:
        checker.problems.append("set-up made inputs that differ from the plan")
    return cli, elapsed


def run_op(cli, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv), None
        except Exception as e:  # an exception escaping cli.main is a failed operation
            return None, type(e).__name__

    (rc, exc), dt = timed(call)
    return rc, out.getvalue(), exc, dt


def run_pass(cli, ops):
    start = time.perf_counter()
    results = [run_op(cli, op.argv) for op in ops]
    return results, time.perf_counter() - start


class Checker:
    """Keeps each pass's outputs and checks them after the measurement, so
    that the benchmark's reference code adds nothing to the peak memory.
    An output seen before reuses its verdict."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.outputs: dict[tuple, tuple] = {}  # each distinct (op index, rc, stdout, exception)
        self.passes: list[list[tuple]] = []
        self.problems: list[str] = []

    def record(self, results) -> None:
        keys = []
        for i, (rc, out, exc, _) in enumerate(results):
            key = (i, rc, out, exc)
            keys.append(self.outputs.setdefault(key, key))
        self.passes.append(keys)

    def _failed(self, key) -> bool:
        """Did this output fail? An unexpected failure goes to ``problems``."""
        i, rc, out, exc = key
        op = self.ops[i]
        if exc is not None:
            if exc != op.expected_failure:
                self.problems.append(f"{op.label}: {exc} escaped cli.main")
            return True
        if rc == 2:
            problem = "exit 2 on valid input"
        else:
            try:
                problem = workloads.CHECKS[op.check](rc, out, op.want)
            except Exception as e:  # a malformed output must not stop the run
                problem = f"check raised {type(e).__name__}: {e}"
        if problem is not None:
            self.problems.append(f"{op.label}: {problem}")
        return problem is not None

    def check(self) -> list[list[bool]]:
        """Per pass and operation: did it fail?"""
        failed = {key: self._failed(key) for key in self.outputs}
        return [[failed[key] for key in keys] for keys in self.passes]


def verify_found(cli, ops: list[workloads.Op], checker: Checker) -> None:
    """Run the entropic oracle on every scheme the fig2 searches found."""
    found = {}
    for op in ops:
        path = Path(op.want.get("out_path", ""))
        if op.check == "achievable" and path.is_file():
            found.setdefault(path.read_text(encoding="utf-8"), (op.label, path))
    for label, path in found.values():
        rc, _, exc, _ = run_op(cli, ["--json", "verify", "fig2", str(path), "--entropic"])
        if rc != 0 or exc is not None:
            checker.problems.append(f"{label}: found scheme fails verify --entropic (exit {rc}, {exc})")


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def measure(name: str, seed: int, workdir: Path) -> dict:
    files, ops = plan(name, seed, workdir)
    checker = Checker(ops)
    per_op: list[list[float]] = [[] for _ in ops]
    setups, measured = [], 0.0
    while measured < RUN_SECONDS:
        # fresh set-ups before every pass, as each CLI call starts afresh;
        # the pass uses the last one
        for _ in range(SETUPS_PER_PASS):
            cli, elapsed = set_up(files, workdir, checker)
            setups.append(elapsed)
        results, wall = run_pass(cli, ops)
        measured += wall
        checker.record(results)
        for lat, (_, _, _, dt) in zip(per_op, results):
            lat.append(dt * 1000)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    flags = checker.check()
    # Each operation's latency is the median of its successful, scaled
    # times over the run's passes, and throughput is the number of those
    # operations over the sum of their latencies.
    latency = []
    for i, lat in enumerate(per_op):
        ok = [dt for dt, pass_flags in zip(lat, flags) if not pass_flags[i]]
        if ok:
            latency.append(statistics.median(ok))
    metrics = {
        "ops_per_s": (len(latency) / (sum(latency) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(latency), "ms"),
        "op_p90_ms": (quantile90(latency), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    verify_found(cli, ops, checker)
    return result_line(checker, flags, metrics)


def measure_traced(name: str, seed: int, workdir: Path) -> dict:
    files, ops = plan(name, seed, workdir)
    checker = Checker(ops)
    tracer = layers.Tracer()
    setup_metrics, times, counts = [], [], None
    # scaled times of each operation, untraced and traced
    per_op = {False: [[] for _ in ops], True: [[] for _ in ops]}
    measured = 0.0
    while measured < RUN_SECONDS or not times:
        for traced in (False, True):
            tracer.reset()
            tracer.keep_spans = False
            cli, _ = set_up(files, workdir, checker, tracer)
            setup_metrics.append(layers.setup_times(tracer))
            tracer.reset()
            tracer.keep_spans = traced and not times
            if traced:
                tracer.install()
            try:
                results, wall = run_pass(cli, ops)
            finally:
                tracer.uninstall()
            measured += wall
            checker.record(results)
            for lat, (_, _, _, dt) in zip(per_op[traced], results):
                lat.append(dt)
            if not traced:
                continue
            times.append(layers.pass_times(tracer))
            if counts is None:
                counts = layers.pass_counts(tracer)
            elif counts != layers.pass_counts(tracer):
                checker.problems.append("traced counts differ between passes of the same inputs")
    tracer.write_spans(WORK / "traces" / f"{name}-seed{seed}.jsonl")
    values: dict[str, float] = {}
    for key in setup_metrics[0]:
        values[key] = statistics.median(m[key] for m in setup_metrics)
    for key in times[0]:
        values[key] = statistics.median(t[key] for t in times)
    values.update(counts)
    traced_s, plain_s = (sum(map(statistics.median, per_op[t])) for t in (True, False))
    values["trace.overhead_s"] = traced_s - plain_s
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {key: (values[key], units[key]) for key in units}
    flags = checker.check()
    verify_found(cli, ops, checker)
    return result_line(checker, flags, metrics)


def result_line(checker: Checker, flags: list[list[bool]], metrics: dict) -> dict:
    for problem in checker.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not checker.problems,
        "attempted": sum(map(len, flags)),
        "failed": sum(map(sum, flags)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        measure_fn = measure_traced if args.trace else measure
        line = measure_fn(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def child(workload: str, seed: int, trace: int) -> dict:
    """One run in a fresh process; its last output line is the result."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    argv += ["--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            line = child(workload, args.seed, trace)
            correct &= line["correct"]
            print(
                f"== {workload} (seed {args.seed}, trace {trace}): correct={line['correct']} "
                f"attempted={line['attempted']} failed={line['failed']}"
            )
            for key, metric in line["metrics"].items():
                print(f"  {key:52s} {metric['value']:>16.6g} {metric['unit']}")
    return 0 if correct else 1


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def run_steadiness(args) -> int:
    """Each workload on ``--steadiness`` seeds: spread of every end-to-end
    metric against its bound, and whether traced counts repeat for a seed."""
    steady = True
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    for workload in WORKLOADS:
        lines = []
        for k in range(args.steadiness):
            lines.append(child(workload, args.seed + k, 0))
            values = " ".join(f"{key}={m['value']:.5g}" for key, m in lines[-1]["metrics"].items())
            print(f"  seed {args.seed + k}: {values}", flush=True)
        shares = {line["failed"] / line["attempted"] for line in lines}
        correct = all(line["correct"] for line in lines)
        steady &= correct
        print(f"== {workload}: correct={correct} failed shares={sorted(shares)}")
        for metric in SPEC["end_to_end"]:
            values = [line["metrics"][metric["name"]]["value"] for line in lines]
            s = spread(values)
            ok = s <= metric["bound"] / 3
            steady &= ok
            print(
                f"  {metric['name']:14s} median {statistics.median(values):12.5g} {metric['unit']:5s} "
                f"spread {s:6.3f}  bound {metric['bound']:.2f}  {'ok' if ok else 'WIDE'}"
            )
        first, second = (child(workload, args.seed, 1) for _ in range(2))
        same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in counted)
        steady &= same
        print(f"  traced counts repeat for seed {args.seed}: {same}", flush=True)
    return 0 if steady else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # the standard benchmark invocation passes the run length; it is fixed
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, help="must equal run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="SEEDS")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}, the run_seconds of BENCHMARK.json")
    if not (SRC / "cdscover" / "__init__.py").is_file():
        print(f"no cdscover package under {SRC}", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args)
    if args.steadiness:
        return run_steadiness(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
