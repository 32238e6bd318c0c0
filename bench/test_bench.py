"""Tests of the benchmark itself, on shrunken copies of the workloads.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import copy
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import worker
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SEED = 7


def _small(name: str) -> dict:
    config = copy.deepcopy(workloads.CONFIGS[name])
    params = config["params"]
    if name == "sweep":
        params.update(m_list=[8, 32, 128], trials=100)
    elif name == "genericity":
        params.update(m_list=[16, 64], trials=10, n_mc=500)
    elif name == "spurious":
        params.update(n_mc=500)
    else:
        params.update(n_mc=300)
    return config


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload; the checks read the shrunken params too."""
    for name in workloads.CONFIGS:
        monkeypatch.setitem(workloads.CONFIGS, name, _small(name))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CONFIGS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


#: a layer each workload must reach, so a wrapper that missed a by-name
#: import shows up as a zero count
_REACHED = {
    "sweep": "distributions.sample_isotropic_matrix.calls",
    "genericity": "mixing.SmoothGridMap.gram_batch.calls",
    "spurious": "mpa.DarmoisInverse.jacobian.calls",
    "reparam": "experiments.InverseElementwiseStage.jacobian.calls",
}


@pytest.mark.parametrize("name", list(workloads.CONFIGS))
def test_every_metric_is_emitted_with_its_unit(name, small, tmp_path):
    threads = workloads.CONFIGS[name]["threads"]
    plain = worker.Runs(name, SEED, str(tmp_path), threads)
    e2e = run.end_to_end(run.measure_setup(name, SEED, importtime=False),
                         worker.measure(plain, seconds=0))
    traced = worker.Runs(name, SEED, str(tmp_path), threads)
    layers = run.per_layer(run.measure_setup(name, SEED, importtime=True),
                           worker.measure_traced(traced, 0, str(tmp_path / "spans.jsonl")))

    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    for metrics, units in ((e2e, run.END_TO_END_UNITS), (layers, run.LAYER_UNITS)):
        assert set(metrics) == set(units)
        assert all(math.isfinite(v) for v in metrics.values())
    assert all(e2e[m] > 0 for m in run.END_TO_END_UNITS)
    assert layers[_REACHED[name]] > 0
    assert layers["cli.import_ima_lab_s"] > layers["cli.import_numpy_s"] > 0
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert {"id", "name", "start", "end", "parent", "run", "thread"} <= set(json.loads(spans[0]))


def _patched_attributes():
    """Every ima_lab module attribute and class-dict entry a wrapper replaces."""
    seen = {}
    for module_name, qualname, _hook in tracing.TARGETS:
        module = importlib.import_module(f"ima_lab.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            seen[(owner, attr)] = owner.__dict__[attr]
            continue
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("ima_lab") and qualname in vars(mod):
                seen[(mod, qualname)] = vars(mod)[qualname]
    return seen


@pytest.mark.parametrize("name", ["genericity", "spurious", "reparam"])
def test_wrappers_are_removed_and_leave_csv_bytes_unchanged(name, small, tmp_path):
    before = _patched_attributes()
    threads = workloads.CONFIGS[name]["threads"]
    untraced = worker._run_once(name, SEED, str(tmp_path), threads)[2]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert any(_patched_attributes()[key] is not value for key, value in before.items())
        traced = worker._run_once(name, SEED, str(tmp_path), threads, tracer)[2]
    after = _patched_attributes()

    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans
    assert untraced == traced
    assert worker._run_once(name, SEED, str(tmp_path), threads)[2] == untraced


def test_pool_worker_spans_take_the_run_indexed_span_as_parent(small, tmp_path):
    tracer = tracing.Tracer()
    with tracer.installed():
        worker._run_once("genericity", SEED, str(tmp_path), 2, tracer)
    pool_ids = {s[0] for s in tracer.spans if s[1] == tracing.POOL}
    pool_thread = next(s[6] for s in tracer.spans if s[1] == tracing.POOL)
    off_thread = [s for s in tracer.spans if s[6] != pool_thread]
    assert off_thread
    assert all(s[4] in pool_ids or s[4] in {t[0] for t in off_thread} for s in off_thread)


def test_checker_flags_one_altered_byte(tmp_path):
    """At the default seed the full spurious workload must match its
    recorded digest, and one changed byte anywhere must fail the check."""
    data = worker._run_once("spurious", workloads.DEFAULT_SEED, str(tmp_path), 1)[2]
    assert workloads.check_output("spurious", workloads.DEFAULT_SEED, data) == []
    for pos in (0, len(data) // 2, len(data) - 1):
        altered = bytearray(data)
        altered[pos] ^= 0x01
        assert workloads.check_output("spurious", workloads.DEFAULT_SEED, bytes(altered))


def test_semantic_check_flags_a_flipped_flag_and_the_run_counts_as_failed(small, tmp_path,
                                                                         monkeypatch):
    data = worker._run_once("reparam", SEED, str(tmp_path), 1)[2]
    assert workloads.check_output("reparam", SEED, data) == []
    altered = data.replace(b",true", b",frue", 1)
    assert workloads.check_output("reparam", SEED, altered)

    outputs = iter([data, altered])

    def fake_run_once(*args, **kwargs):
        out = next(outputs)
        return 1.0, 1.0, out, workloads.check_output("reparam", SEED, out)

    monkeypatch.setattr(worker, "_run_once", fake_run_once)
    runs = worker.Runs("reparam", SEED, str(tmp_path), 1)
    runs.run()
    runs.run()
    assert (runs.attempted, runs.failed) == (2, 1)


def test_times_are_scaled_to_the_reference_host():
    """A host that runs the kernel twice as slow as the reference, at the
    workload's thread count, halves the reported times; memory is not
    scaled."""
    slow = 2 * hostspeed.REFERENCE_S[1]
    pooled_slow = 2 * hostspeed.REFERENCE_S[2]
    setup = {"setup_s": [0.4, 0.6, 0.5], "kernel_s": [slow, slow]}
    result = {"wall_s": [3.0, 1.0, 2.0], "cpu_s": [1.5, 1.5, 1.6], "threads": 2,
              "kernel_s": [pooled_slow, 0.5 * pooled_slow, 4 * pooled_slow], "peak_rss_mb": 60.0}
    assert run.end_to_end(setup, result) == pytest.approx(
        {"wall_s": 1.0, "cpu_s": 0.75, "setup_s": 0.25, "peak_rss_mb": 60.0}
    )


def test_parse_importtime_sums_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        10 |         60 |   scipy",
        "import time:        40 |         40 |   scipy.special",
        "import time:         5 |        405 | ima_lab",
    ])
    assert run.parse_importtime(text) == pytest.approx(
        {"numpy": 300e-6, "scipy": 100e-6, "ima_lab": 405e-6}
    )
