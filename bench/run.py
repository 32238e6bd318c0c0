"""ima-lab benchmark: pinned CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 20250809 --seconds 20 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn.  With ``--trace 0`` the end-to-end metrics are measured with
tracing off; with ``--trace 1`` a separate traced run gives the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are the same numbers for a human reader.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh interpreters timed per run for setup_s
SETUP_PROBES = 9
#: wall-clock limit for one workload process, on top of the window
WORKER_SLACK_S = 120

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: per-layer metric -> unit, in the order of README.md's prediction list
LAYER_UNITS = {
    "cli.run.busy_s": "s",
    "cli.run.self_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_ima_lab_s": "s",
    "experiments.run_indexed.busy_s": "s",
    "experiments.pool_busy_fraction": "ratio",
    "experiments.pool_speedup": "ratio",
    "experiments.estimate_global_contrast.calls": "count",
    "experiments.estimate_global_contrast.busy_s": "s",
    "experiments.estimate_global_contrast.self_s": "s",
    "experiments.boundary_statistics.calls": "count",
    "experiments.boundary_statistics.busy_s": "s",
    "experiments.reparam_invariance_check.busy_s": "s",
    "experiments.reparam_invariance_check.self_s": "s",
    "experiments.InverseElementwiseStage.jacobian.calls": "count",
    "experiments.InverseElementwiseStage.jacobian.busy_s": "s",
    "experiments.rows_to_csv.busy_s": "s",
    "experiments.rows_to_csv.bytes": "bytes",
    "distributions.sample_isotropic_matrix.calls": "count",
    "distributions.sample_isotropic_matrix.busy_s": "s",
    "distributions.sample_isotropic_matrix.self_s": "s",
    "seeding.generator.calls": "count",
    "seeding.generator.busy_s": "s",
    "distributions.sample_factorial.calls": "count",
    "distributions.sample_factorial.draws": "count",
    "distributions.sample_factorial.busy_s": "s",
    "mixing.sample_grid_map.calls": "count",
    "mixing.sample_grid_map.busy_s": "s",
    "mixing.sample_grid_map.self_s": "s",
    "mixing.SmoothGridMap.gram_batch.calls": "count",
    "mixing.SmoothGridMap.gram_batch.rows": "count",
    "mixing.SmoothGridMap.gram_batch.busy_s": "s",
    "mixing.SmoothGridMap.boundary_mask.calls": "count",
    "mixing.SmoothGridMap.boundary_mask.busy_s": "s",
    "mixing.SmoothGridMap.jacobian.calls": "count",
    "mixing.SmoothGridMap.jacobian.busy_s": "s",
    "mixing.ConformalMap.jacobian.calls": "count",
    "mixing.ConformalMap.jacobian.busy_s": "s",
    "mixing.LinearMap.jacobian.calls": "count",
    "contrast.local_contrast_unclamped.calls": "count",
    "contrast.local_contrast_unclamped.busy_s": "s",
    "contrast.local_contrast_unclamped.rejected": "count",
    "contrast.local_contrast_unclamped.bytes_computed": "bytes",
    "contrast.local_contrast_from_gram.calls": "count",
    "contrast.local_contrast_from_gram.rows": "count",
    "contrast.local_contrast_from_gram.nan_rows": "count",
    "contrast.local_contrast_from_gram.busy_s": "s",
    "mpa.ComposedMap.jacobian.calls": "count",
    "mpa.ComposedMap.jacobian.busy_s": "s",
    "mpa.ComposedMap.jacobian.self_s": "s",
    "mpa.RotatedGaussianMPA.jacobian.calls": "count",
    "mpa.RotatedGaussianMPA.jacobian.busy_s": "s",
    "mpa.DarmoisInverse.jacobian.calls": "count",
    "mpa.DarmoisInverse.jacobian.busy_s": "s",
    "mpa.DarmoisMap.inverse.calls": "count",
    "mpa.DarmoisMap.inverse.busy_s": "s",
    "mpa.DarmoisMap.jacobian.calls": "count",
    "mpa.DarmoisMap.jacobian.busy_s": "s",
    "mpa.darmois_build.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.glue_self_fraction": "ratio",
}

_SETUP_PROBE = (
    "import json, os, sys\n"
    "import ima_lab.cli as cli\n"
    "cli.validate_run_config(json.loads(sys.argv[1]))\n"
    "os._exit(0)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread: the workload's `threads` is the only parallelism.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("IMA_LAB_SEED", None)
    return env


def measure_setup(name: str, seed: int, importtime: bool) -> dict:
    """Time fresh interpreters from spawn until ima_lab.cli is imported
    and the workload config is validated, with the host-speed kernel timed
    before each probe and after the last."""
    config = json.dumps(workloads.run_config(name, seed, str(OUT / name)))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", _SETUP_PROBE, config]
    times, imports, kernel_s = [], [], []
    for _ in range(SETUP_PROBES):
        kernel_s.append(hostspeed.time_kernel())
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        if importtime:
            imports.append(parse_importtime(proc.stderr))
    kernel_s.append(hostspeed.time_kernel())
    return {"setup_s": times, "imports": imports, "kernel_s": kernel_s}


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> dict:
    """Cumulative import seconds of numpy, scipy and ima_lab from
    ``-X importtime`` output: for each package, the sum over its
    outermost entries (a nested entry is already in its parent's total)."""
    entries = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)), match.group(4), int(match.group(2)) * 1e-6))
    totals = {}
    for package in ("numpy", "scipy", "ima_lab"):
        total = 0.0
        inside_depth = None  # depth of the enclosing entry of this package
        # importtime prints a parent after its children, so walk backwards.
        for depth, module, cumulative in reversed(entries):
            if inside_depth is not None and depth <= inside_depth:
                inside_depth = None
            if inside_depth is None and (module == package or module.startswith(package + ".")):
                total += cumulative
                inside_depth = depth
        totals[package] = total
    return totals


def run_worker(name: str, seed: int, seconds: int, trace: int, threads: int) -> dict:
    out_dir = OUT / name
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads), "--trace", str(trace),
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=seconds + WORKER_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def upper_percentile(samples):
    """(q, value) for the highest percentile with at least ten samples
    beyond it, or None when there are too few samples for one above the median."""
    n = len(samples)
    q = int(100 * (1 - 10 / n)) if n else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(setup: dict, result: dict) -> dict:
    """Medians, with every time in reference-host seconds (hostspeed.py)."""
    run_scale = hostspeed.scale(result["kernel_s"], result["threads"])
    setup_scale = hostspeed.scale(setup["kernel_s"])
    return {
        "wall_s": statistics.median(result["wall_s"]) * run_scale,
        "cpu_s": statistics.median(result["cpu_s"]) * run_scale,
        "setup_s": statistics.median(setup["setup_s"]) * setup_scale,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(setup: dict, result: dict) -> dict:
    """Median over the traced runs of every per-layer metric; a layer the
    workload never called reads 0."""
    metrics = {m: statistics.median(run.get(m, 0) for run in result["layers"]) for m in LAYER_UNITS}
    for package in ("numpy", "scipy", "ima_lab"):
        metrics[f"cli.import_{package}_s"] = statistics.median(
            probe[package] for probe in setup["imports"]
        )
    serial = result["traced_serial_wall_s"]
    traced = statistics.median(result["traced_wall_s"])
    # Without a pool (threads=1) there is nothing to speed up.
    metrics["experiments.pool_speedup"] = statistics.median(serial) / traced if serial else 1.0
    metrics["trace.overhead_s"] = traced - statistics.median(result["untraced_wall_s"])
    return metrics


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ima_lab").glob("*.py")))


def bench_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    threads = min(workloads.CONFIGS[name]["threads"], len(os.sched_getaffinity(0)))
    setup = measure_setup(name, seed, importtime=bool(trace))
    result = run_worker(name, seed, seconds, trace, threads)
    if trace:
        metrics = per_layer(setup, result)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(setup, result)
        units = END_TO_END_UNITS
    env = dict(result["env"], src_ima_lab_lines=src_line_count())
    report(name, seed, seconds, trace, metrics, units, setup, result, env)
    return {"metrics": metrics, "units": units, "attempted": result["attempted"],
            "failed": result["failed"]}


def report(name, seed, seconds, trace, metrics, units, setup, result, env) -> None:
    mode = "traced (per-layer)" if trace else "untraced (end-to-end)"
    print(f"== {name}  seed {seed}  window {seconds} s  {mode}")
    for metric, unit in units.items():
        note = ""
        if metric in ("wall_s", "cpu_s"):
            samples = result[metric]
            scale = hostspeed.scale(result["kernel_s"], result["threads"])
            note = f"median of {len(samples)} runs, measured {statistics.median(samples):.4f} s"
            upper = upper_percentile([t * scale for t in samples])
            note += f", p{upper[0]} {upper[1]:.4f}" if upper else ", too few runs for an upper percentile"
        elif metric == "setup_s":
            samples = setup["setup_s"]
            note = (f"median of {len(samples)} fresh interpreters, "
                    f"measured {statistics.median(samples):.4f} s")
        print(f"  {metric:<52} {metrics[metric]:>14.6g} {unit:<6} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_fraction':<52} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} runs")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print(f"  env {json.dumps(env, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20, help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ima_lab" / "__init__.py").is_file():
        print(f"error: no ima_lab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(workloads.CONFIGS) if args.workload == "all" else [args.workload]
    results = {name: bench_workload(name, args.seed, args.seconds, args.trace) for name in names}

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, r in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in r["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": r["units"][metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
