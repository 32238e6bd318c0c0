"""Outside-in tracing of ima_lab: wrap the public functions and methods
of each module from the benchmark's own code, record one span per call,
and reduce the spans to per-layer counts, busy time and self time.

The library itself is not edited.  ``Tracer.installed()`` patches a
wrapper into every ``ima_lab`` module namespace that holds the function
(modules that imported it by name included) and onto the class for
methods, and puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

from ima_lab.errors import RankDeficientError


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draws(args, kwargs, result, exc):
    return {"draws": int(_arg(args, kwargs, 1, "n"))}


def _gram_rows(args, kwargs, result, exc):
    return {"rows": len(_arg(args, kwargs, 1, "S"))}


def _contrast_svd(args, kwargs, result, exc):
    return {"rejected": int(isinstance(exc, RankDeficientError)),
            "bytes_computed": 8 * np.size(_arg(args, kwargs, 0, "J"))}


def _contrast_gram(args, kwargs, result, exc):
    G = np.asarray(_arg(args, kwargs, 0, "G"))
    stats = {"rows": G.size // (G.shape[-1] * G.shape[-2])}
    if result is not None:
        stats["nan_rows"] = int(np.count_nonzero(np.isnan(result)))
    return stats


def _csv_bytes(args, kwargs, result, exc):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path) if exc is None else 0}


#: (module, qualified name, extra-stats hook) for every traced call site.
TARGETS = (
    ("cli", "run", None),
    ("experiments", "run_indexed", None),
    ("experiments", "concentration_sweep", None),
    ("experiments", "genericity_experiment", None),
    ("experiments", "spurious_gap_experiment", None),
    ("experiments", "estimate_global_contrast", None),
    ("experiments", "boundary_statistics", None),
    ("experiments", "reparam_invariance_check", None),
    ("experiments", "InverseElementwiseStage.jacobian", None),
    ("experiments", "rows_to_csv", _csv_bytes),
    ("distributions", "sample_isotropic_matrix", None),
    ("distributions", "sample_factorial", _draws),
    ("seeding", "generator", None),
    ("mixing", "sample_grid_map", None),
    ("mixing", "random_conformal_map", None),
    ("mixing", "SmoothGridMap.gram_batch", _gram_rows),
    ("mixing", "SmoothGridMap.boundary_mask", None),
    ("mixing", "SmoothGridMap.jacobian", None),
    ("mixing", "ConformalMap.jacobian", None),
    ("mixing", "LinearMap.jacobian", None),
    ("contrast", "local_contrast_unclamped", _contrast_svd),
    ("contrast", "local_contrast_from_gram", _contrast_gram),
    ("mpa", "ComposedMap.jacobian", None),
    ("mpa", "RotatedGaussianMPA.jacobian", None),
    ("mpa", "DarmoisInverse.jacobian", None),
    ("mpa", "DarmoisMap.inverse", None),
    ("mpa", "DarmoisMap.jacobian", None),
    ("mpa", "darmois_build", None),
)

#: spans whose self time is glue: the CLI and the experiment functions
GLUE = (
    "cli.run",
    "experiments.run_indexed",
    "experiments.concentration_sweep",
    "experiments.genericity_experiment",
    "experiments.spurious_gap_experiment",
    "experiments.estimate_global_contrast",
    "experiments.boundary_statistics",
    "experiments.reparam_invariance_check",
)

POOL = "experiments.run_indexed"


class Tracer:
    """Collects spans ``(id, name, start, end, parent, run, thread, stats)``
    in memory.  A span opened on a pool worker thread with nothing open on
    that thread takes the enclosing ``run_indexed`` span as its parent."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_span = None

    def _wrap(self, name, fn, stats_hook):
        tracer = self
        is_pool = name == POOL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._pool_span
            sid = next(tracer._ids)
            stack.append(sid)
            if is_pool:
                outer_pool, tracer._pool_span = tracer._pool_span, sid
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as caught:
                exc = caught
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_pool:
                    tracer._pool_span = outer_pool
                stats = stats_hook(args, kwargs, result, exc) if stats_hook else None
                tracer.spans.append(
                    (sid, name, start, end, parent, tracer.run_id, threading.get_ident(), stats)
                )

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in for the duration of the block.  A target
        the library no longer defines is skipped, so its metrics read 0."""
        patches = []
        try:
            for module_name, qualname, hook in TARGETS:
                module = importlib.import_module(f"ima_lab.{module_name}")
                name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is not None:
                        patches.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(name, original, hook))
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, hook)
                for mod in _ima_lab_modules():
                    if vars(mod).get(qualname) is original:
                        patches.append((mod, qualname, original))
                        setattr(mod, qualname, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run", "thread", "stats")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ima_lab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ima_lab" or n.startswith("ima_lab."))]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, run_id, threads) -> dict:
    """Flat ``{"<module>.<function>.<stat>": value}`` for one traced run.

    busy_s sums span durations over every thread; self_s subtracts the
    part of each span's interval that its child spans cover.  Also gives
    ``experiments.pool_busy_fraction`` (time in spans under run_indexed
    over run_indexed busy time times ``threads``) and
    ``trace.glue_self_fraction`` (self time left in the ``GLUE`` spans
    over the thread time under ``cli.run``: its busy time plus the time
    pool workers overlap each other).
    """
    spans = [s for s in spans if s[5] == run_id]
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    layers = {}
    for sid, name, start, end, _parent, _run, _thread, stats in spans:
        layer = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        layer["calls"] += 1
        layer["busy_s"] += end - start
        layer["self_s"] += (end - start) - _covered(children.get(sid, ()))
        for key, value in (stats or {}).items():
            layer[key] = layer.get(key, 0) + value
    flat = {f"{name}.{stat}": value for name, layer in layers.items() for stat, value in layer.items()}

    pool_ids = {s[0] for s in spans if s[1] == POOL}
    pool_child_busy = sum(s[3] - s[2] for s in spans if s[4] in pool_ids)
    overlap = pool_child_busy - sum(_covered(children.get(sid, ())) for sid in pool_ids)
    pool_busy = layers.get(POOL, {}).get("busy_s", 0.0)
    flat["experiments.pool_busy_fraction"] = pool_child_busy / (pool_busy * threads) if pool_busy else 0.0
    glue_self = sum(layers[name]["self_s"] for name in GLUE if name in layers)
    flat["trace.glue_self_fraction"] = glue_self / (layers["cli.run"]["busy_s"] + overlap)
    return flat
