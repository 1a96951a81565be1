"""Benchmark for amlgraph: one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
./src and nothing is installed. Metric names and units come from
BENCHMARK.json beside this directory. The output is one JSON line with
the machine, the settings and the named results of the workload, then the
result object as the last line. Exit code 2 means the program or
BENCHMARK.json is missing, 1 a benchmark error; neither prints a result.
Workloads and metrics are described in README.md here.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# OpenBLAS would use every core for matmul; one thread keeps runs steady
# on a shared machine. Must be set before numpy is first imported.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed region; a step that starts "
                        "before it ends runs to completion")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def _blas_threads():
    """Threads OpenBLAS reports it will use, or None if it cannot be asked."""
    import ctypes

    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _machine() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads_pinned": BLAS_THREADS, "blas_threads": _blas_threads(),
            "processes": 1}


def _percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _run_steps(wl, state, outcome, seconds=None, count=None):
    """Steps until `seconds` have passed or `count` steps are done."""
    steps = []
    end = time.perf_counter() + (seconds or 0.0)
    while (len(steps) < count if count is not None
           else time.perf_counter() < end):
        try:
            step = wl.step(state, outcome)
        except Exception as e:  # noqa: BLE001  (a failed request, counted)
            outcome.op(False, f"{wl.name} step raised {e!r}")
            break
        if step is None:
            break
        steps.append(step)
    return steps


def _timed(wl, workdir, seconds, outcome):
    """Set up SETUP_REPEATS times; after each set-up, step for a third of
    the time, so set-up and steps sample the same stretch of machine time."""
    setup_s, setup_digests, steps = [], [], []
    spent = 0.0
    for i in range(SETUP_REPEATS):
        d = os.path.join(workdir, f"setup-{i}")
        os.makedirs(d)
        t0 = time.perf_counter()
        state = wl.setup(d, outcome)
        t1 = time.perf_counter()
        setup_s.append(t1 - t0)
        setup_digests.append(wl.setup_digests(state))
        steps += _run_steps(wl, state, outcome,
                            seconds=seconds * (i + 1) / SETUP_REPEATS - spent)
        spent += time.perf_counter() - t1
    if not steps:
        raise RuntimeError(f"{wl.name}: no step completed: "
                           f"{outcome.problems[:3]}")
    outcome.check(all(d == setup_digests[0] for d in setup_digests),
                  "set-up outputs differ between repeats of one seed")
    digests, named = wl.finish(state, steps, outcome)
    latencies_ms = [1000.0 * s.latency_s for s in steps]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": sum(s.items for s in steps) / sum(s.item_s for s in steps),
        "latency_ms_p50": _percentile(latencies_ms, 50),
        "latency_ms_p90": _percentile(latencies_ms, 90),
    }
    info = {"steps": len(steps), "setup_runs": setup_s,
            "digests": {**setup_digests[0], **digests}, "named": named}
    return metrics, info


def _length(windows) -> float:
    return sum(w1 - w0 for w0, w1 in windows)


def _uncovered(windows, spans) -> float:
    """Time inside `windows` that no outermost span covers."""
    roots = [(span[3], span[4]) for span in spans if span[1] == -1]
    total = 0.0
    for w0, w1 in windows:
        covered = sum(max(0.0, min(w1, e) - max(w0, s)) for s, e in roots)
        total += (w1 - w0) - covered
    return total


def _traced(make_workload, workdir, seconds, outcome, per_layer):
    """Untraced, traced, untraced again: the same set-up and steps each time.

    Later passes in one process run faster (about 10 % per `train-desk`
    fit), so the traced pass is compared with the mean of the two untraced
    passes around it.
    """
    from tracer import Tracer

    def one_run(tag, count=None, tracer=None):
        wl = make_workload()
        d = os.path.join(workdir, tag)
        os.makedirs(d)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = wl.setup(d, outcome)
            t1 = time.perf_counter()
            steps = _run_steps(wl, state, outcome, seconds=seconds, count=count)
            if not steps:
                raise RuntimeError(f"{wl.name}: no step completed: "
                                   f"{outcome.problems[:3]}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests, _ = wl.finish(state, steps, outcome)
        digests.update(wl.setup_digests(state))
        windows = [(t0, t1)] + [(s.start, s.start + s.latency_s) for s in steps]
        return wl, state, steps, digests, windows

    wl, state, steps, before_digests, before = one_run("before")
    tracer = Tracer()
    _, _, _, traced_digests, traced = one_run("traced", len(steps), tracer)
    _, _, _, after_digests, after = one_run("after", len(steps))
    outcome.check(before_digests == traced_digests == after_digests,
                  "tracing changed an output byte")
    plain_s = (_length(before) + _length(after)) / 2
    extra = {"trace.untraced_s": plain_s,
             "trace.overhead_s": _length(traced) - plain_s,
             "trace.overhead_share": (_length(traced) - plain_s) / plain_s,
             "trace.uncovered_s": _uncovered(traced, tracer.spans),
             "stream.batch_dependent_records": 0.0,
             "stream.batch_probe_records": 0.0}
    if hasattr(wl, "batch_dependent_records"):
        differ, base = wl.batch_dependent_records(state, steps)
        extra["stream.batch_dependent_records"] = float(differ)
        extra["stream.batch_probe_records"] = float(base)
    totals = tracer.totals()
    metrics = {name: extra[name] if name in extra else tracer.value(name, totals)
               for name in per_layer}
    info = {"steps": len(steps), "spans": len(tracer.spans),
            "digests": traced_digests}
    return metrics, info


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import amlgraph
        with open(SPEC_PATH, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (ImportError, OSError, json.JSONDecodeError) as e:
        print(f"perfbench: cannot load the program or {SPEC_PATH}: {e}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(amlgraph.__file__).startswith(src + os.sep):
        print(f"perfbench: amlgraph imported from {amlgraph.__file__}, not "
              f"{src}", file=sys.stderr)
        return 2

    import workloads as wls
    if args.workload not in wls.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wls.WORKLOADS)}", file=sys.stderr)
        return 1

    def make_workload():
        return wls.WORKLOADS[args.workload](wls.SCALES[args.scale], args.seed)

    outcome = wls.Outcome()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    workdir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            metrics, info = _traced(make_workload, workdir, args.seconds,
                                    outcome, units)
        else:
            metrics, info = _timed(make_workload(), workdir, args.seconds,
                                   outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if (set(metrics) != set(units)
            or not all(map(math.isfinite, metrics.values()))):
        print(f"perfbench: metrics do not match BENCHMARK.json {group}: "
              f"{metrics}", file=sys.stderr)
        return 1
    for problem in outcome.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, scale=args.scale,
                seconds=args.seconds, trace=args.trace, machine=_machine(),
                problems=len(outcome.problems))
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
