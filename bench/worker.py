"""Workload process: runs one pinned workload through ``ima_lab.cli.run``
for a fixed measuring window and prints its measurements as one JSON line.

Started by ``run.py`` with OpenBLAS pinned to one thread, so the
workload's ``threads`` is the only parallelism.  Not meant to be run by
hand; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import hostspeed
import workloads
from ima_lab import cli


def _run_once(name, seed, out_dir, threads, tracer=None):
    """One cli.run; returns (wall_s, cpu_s, csv_bytes, problems)."""
    config = workloads.run_config(name, seed, out_dir, threads)
    csv_path = os.path.join(out_dir, f"{config['command']}.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    if tracer is not None:
        tracer.run_id += 1
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        code = cli.run(config)
    except Exception as exc:  # a failed run is counted, the window goes on
        return time.perf_counter() - wall0, time.process_time() - cpu0, b"", [f"{name}: {exc!r}"]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        return wall, cpu, b"", [f"{name}: cli.run returned {code}"]
    with open(csv_path, "rb") as fh:
        data = fh.read()
    return wall, cpu, data, workloads.check_output(name, seed, data)


class Runs:
    """Counts attempted and failed runs; every run's CSV must also equal
    the reference bytes of the first (single-threaded) run."""

    def __init__(self, name, seed, out_dir, threads):
        self.name, self.seed, self.out_dir, self.threads = name, seed, out_dir, threads
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def run(self, threads=None, tracer=None):
        wall, cpu, data, problems = _run_once(
            self.name, self.seed, self.out_dir, threads or self.threads, tracer
        )
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems = problems + [f"{self.name}: CSV bytes differ from the first run's"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return wall, cpu


def measure(runs: Runs, seconds: float) -> dict:
    # Warm-up, at threads=1: its bytes are the reference that every
    # (possibly pooled) run must reproduce.
    runs.run(threads=1)
    walls, cpus, kernel_s = [], [], [hostspeed.time_kernel(runs.threads)]
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, cpu = runs.run()
        walls.append(wall)
        cpus.append(cpu)
        kernel_s.append(hostspeed.time_kernel(runs.threads))
    return {"wall_s": walls, "cpu_s": cpus, "kernel_s": kernel_s, "threads": runs.threads,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def measure_traced(runs: Runs, seconds: float, span_path: str) -> dict:
    """Alternate untraced and traced runs over the window (and, for a
    pooled workload, traced runs at threads=1 for the pool speed-up)."""
    import tracing

    runs.run(threads=1)
    tracer = tracing.Tracer()
    untraced, traced, traced_serial, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        tracer.spans.clear()  # the spans file keeps the last round only
        untraced.append(runs.run()[0])
        with tracer.installed():
            traced.append(runs.run(tracer=tracer)[0])
            layers.append(tracing.layer_metrics(tracer.spans, tracer.run_id, runs.threads))
            if runs.threads > 1:
                traced_serial.append(runs.run(threads=1, tracer=tracer)[0])
    tracer.write_jsonl(span_path)
    return {"untraced_wall_s": untraced, "traced_wall_s": traced,
            "traced_serial_wall_s": traced_serial, "layers": layers}


def environment(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "blas": _blas_info(numpy),
    }


def _blas_info(numpy) -> dict:
    """BLAS library and its live thread count, read from the bundled
    OpenBLAS when there is one."""
    import ctypes
    import glob

    info = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for CSVs and spans")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    runs = Runs(args.workload, args.seed, args.out, args.threads)
    if args.trace:
        result = measure_traced(runs, args.seconds, os.path.join(args.out, "spans.jsonl"))
    else:
        result = measure(runs, args.seconds)
    result.update(attempted=runs.attempted, failed=runs.failed, problems=runs.problems,
                  env=environment(args.threads))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
