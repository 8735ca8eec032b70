#!/usr/bin/env python3
"""Benchmark of the chordal package.

Run from the repository root:

    python3 perfbench/run.py --workload flow-const --seed 1 --seconds 26 --trace 0

One process runs one workload (flow-const, flow-atom, diagnose or cli) as a
closed loop with a single client: it times set-up, then repeats the
workload's fixed operation list ("a pass") for about ``--seconds`` seconds,
and checks every output against an oracle that does not use the package.
Standard output carries a ``meta`` line (commit, versions, BLAS, nproc,
seed), one ``metric`` line per metric, one ``op`` line per operation with
its pass/FAIL classification, and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics of
BENCHMARK.json plus the tracing overhead, and writes the spans to
``perfbench/_out/``. Every failure is counted in ``failed`` and listed on
the ``op`` lines. ``correct`` is false when an operation fails that did not
fail at the seed commit, or fails on more lanes than it did then
(``known_failures.json``).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# One client on a small box: numpy's BLAS pool stays at one thread, so BLAS
# threads never compete with the client or its CLI children for the cores.
BLAS_THREADS = 1


@dataclass
class Pass:
    seconds: float       # sum of the ops' reference-speed durations
    wall: float          # plain wall time of the pass, calibration excluded
    durations: list
    outputs: list


class SpeedClock:
    """Wall time rescaled to a fixed reference speed of the machine.

    On a shared virtual machine the same computation swings by up to 2x
    within a minute, and CPU time swings with it. So a fixed kernel of
    interpreter and numpy work is timed between operations, at most every
    CALIBRATE_EVERY_S, and each operation's wall time is multiplied by
    KERNEL_REF_S / (kernel time around it). On a machine of steady speed
    this is wall time times a constant.
    """

    KERNEL_REF_S = 0.015
    CALIBRATE_EVERY_S = 0.5

    def __init__(self):
        import numpy

        self._np = numpy
        self._data = numpy.random.default_rng(0).standard_normal((200, 64)) + 0j
        self._last = -1e300
        self.kernel_s = []
        self.calibrate()

    def _kernel(self):
        # interpreter loop, many tiny numpy calls, and vectorised complex
        # arithmetic: the three kinds of work the package does
        acc = 0
        for i in range(40_000):
            acc += i * i % 7
        small = self._data[0, :4]
        for _ in range(1000):
            small = self._np.abs(small * 0.5 + 1j) + 0j
        x = self._data
        for _ in range(50):
            x = (1.0 / (x + 2.0)).cumsum(axis=1) * 0.5
        return acc, small, x

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.kernel_s.append(self._last - t0)
        return self.KERNEL_REF_S / self.kernel_s[-1]

    def scale(self) -> float:
        """Reference-speed factor now, recalibrating when the last one is stale."""
        if time.perf_counter() - self._last >= self.CALIBRATE_EVERY_S:
            return self.calibrate()
        return self.KERNEL_REF_S / self.kernel_s[-1]

    def timed(self, fn, *args):
        """(result, reference-speed seconds) of fn(*args)."""
        before = self.scale()
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        return result, dt * 0.5 * (before + self.scale())


def run_pass(ops, clock, tracer=None) -> Pass:
    from workloads import Refused

    durations, outputs, wall = [], [], 0.0
    for i, op in enumerate(ops):
        before = clock.scale()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.call()
            else:
                tracer.op = i
                out = tracer.call(f"{op.layer}.{op.task}", op.layer, op.call)
        except Exception as exc:  # the op's failure is recorded and classified
            out = Refused(exc)
        dt = time.perf_counter() - t0
        wall += dt
        durations.append(dt * 0.5 * (before + clock.scale()))
        outputs.append(out)
    return Pass(sum(durations), wall, durations, outputs)


def measure(ops, seconds, clock) -> list:
    """Passes until another one would overrun ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, clock))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def measure_traced(ops, seconds, clock, tracer, probes):
    """Untraced and traced passes in turn, so both see the same machine.

    The probes are rebound for the traced passes only. Returns the
    untraced and the traced passes (at least one of each).
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(ops, clock))
        for probe in probes:
            tracer.rebind(*probe)
        try:
            traced.append(run_pass(ops, clock, tracer))
        finally:
            tracer.restore()
        elapsed = time.perf_counter() - start
        pair = statistics.median(p.wall for p in untraced) + statistics.median(p.wall for p in traced)
        if elapsed + pair > seconds:
            return untraced, traced


def classify_pass(ops, p):
    from workloads import Check, classify

    checks = []
    for op, out in zip(ops, p.outputs):
        try:
            checks.append(classify(op, out))
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            checks.append(Check(op.lanes, op.lanes, f"unreadable output: {exc!r}", bad_output=True))
    return checks


def clear_package_caches() -> None:
    """Empty every lazy cache of the package, so each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "chordal" or name.startswith("chordal."):
            for attr, val in vars(mod).items():
                if hasattr(val, "cache_clear"):
                    val.cache_clear()
                elif attr.endswith("_CACHE") and isinstance(val, dict):
                    val.clear()


def blas_info():
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{name['name']} {name.get('version', '')}".strip()
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return name, threads


def source_id():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "chordal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()[:16]


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"], [w["name"] for w in spec["workloads"]]


def emit(values, spec):
    """Every metric of ``spec`` with its unit; 0 where the workload has none."""
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    e2e_spec, layer_spec, names = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few operations (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "chordal" / "__init__.py").is_file():
        print(f"error: no chordal package under {SRC}", file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads; CLI children inherit it
    # One CPU for the client and every child it waits on, so the speed
    # calibration runs where the timed work runs.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import chordal

    if Path(chordal.__file__).resolve().parent != SRC / "chordal":
        print(f"error: imported chordal from {chordal.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import metrics
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS, cli_env

    clock = SpeedClock()

    wl = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inp = dict(wl.inputs(args.seed, args.tiny), src=SRC, workdir=workdir)
        in_process = wl.name != "cli"
        import_times, setup_times, ctx_runs = [], [], []
        for _ in range(1 if args.tiny else SETUP_REPEATS):
            if in_process:  # a fresh interpreter each time, as a user pays it
                import_times.append(clock.timed(partial(
                    subprocess.run, [sys.executable, "-c", "import chordal"], env=cli_env(SRC),
                    check=True, timeout=120))[1])
            clear_package_caches()
            ctx, dt = clock.timed(wl.setup, inp)
            setup_times.append(dt)
            ctx_runs.append(ctx)
        import_s = statistics.median(import_times) if in_process else 0.0
        setup_s = import_s + statistics.median(setup_times)
        ops = wl.ops(ctx)

        tracer = Tracer()
        if args.trace:
            untraced, timed = measure_traced(ops, args.seconds, clock, tracer, wl.probes())
        else:
            untraced = timed = measure(ops, args.seconds, clock)

        checks = [classify_pass(ops, p) for p in untraced + (timed if args.trace else [])]
        flat = [c for pass_checks in checks for c in pass_checks]
        attempted, failed = metrics.failure_counts(flat)
        known = json.loads((HERE / "known_failures.json").read_text()).get(wl.name, {})
        unexpected = metrics.unexpected_failures(ops, checks, known)
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        if args.trace:
            med = lambda key: statistics.median(c[key] for c in ctx_runs if key in c)
            stats = {"measures.build_s": med("build_s")}
            if "cheb_first_s" in ctx:
                stats["numerics.cheb_grid.first_s"] = med("cheb_first_s")
            if not in_process:
                stats["cli.import_s"] = statistics.median(setup_times)
            evals = ctx["cauchy_z"].size * ctx["mus"]["semi"].nodes()[0].size if "mus" in ctx else 0
            values = metrics.per_layer(ops, timed, checks[-1], tracer, stats, evals)
            values.update(metrics.tasks(ops, untraced))
            values.update(metrics.loc(SRC))
            values["trace.overhead"] = (statistics.median(p.seconds for p in timed)
                                        / statistics.median(p.seconds for p in untraced) - 1.0)
            spec = layer_spec
            (HERE / "_out").mkdir(exist_ok=True)
            tracer.write(HERE / "_out" / f"spans-{wl.name}-seed{args.seed}.jsonl")
        else:
            values = metrics.end_to_end(untraced, checks, setup_s, peak_rss_mb)
            values.update(metrics.tasks(ops, untraced))
            spec = e2e_spec

        blas, threads = blas_info()
        commit, digest = source_id()
        meta = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "commit": commit, "source_sha256": digest,
                "python": platform.python_version(), "numpy": np.__version__,
                "blas": blas, "blas_threads": threads, "nproc": os.cpu_count(), "pinned_cpu": cpu,
                "passes_untraced": len(untraced), "passes_traced": len(timed) if args.trace else 0,
                "setup_s": setup_s, "import_s": import_s,
                "pass_wall_s": statistics.median(p.wall for p in untraced),
                "kernel_ref_s": clock.KERNEL_REF_S, "kernel_median_s": statistics.median(clock.kernel_s)}
        print("meta " + json.dumps(meta, sort_keys=True))
        units = {m["name"]: m["unit"] for m in e2e_spec + layer_spec}
        shown = [m["name"] for m in spec] + ([] if args.trace else list(metrics.TASK_METRICS))
        for name in shown:
            value = f"{values[name]:.6g}" if name in values else "n/a"
            print(f"metric {name} {value} {units[name]}")
        for i, op in enumerate(ops):
            bad = max((pc[i] for pc in checks), key=lambda c: c.failed)
            n_bad = sum(pc[i].failed > 0 for pc in checks)
            kind = "FAIL" if bad.failed > known.get(op.name, 0) else "FAIL(known)"
            status = f"{kind} {op.name} failed={bad.failed} of {op.lanes} lanes in {n_bad} of " \
                     f"{len(checks)} passes: {bad.detail}" if bad.failed else f"pass {op.name}"
            print(f"op {status}")
        print(f"summary failed={failed} attempted={attempted} "
              f"failing_ops={sum(any(pc[i].failed for pc in checks) for i in range(len(ops)))} of {len(ops)} "
              f"unexpected={unexpected}")
        print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                          "metrics": emit(values, spec)}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
