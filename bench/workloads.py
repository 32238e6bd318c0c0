"""The four pinned CLI workloads and the check of their CSV output.

Each workload is one run config for ``ima_lab.cli.run``.  At the default
seed the CSV must match the SHA-256 digest recorded at the commit that
introduced this benchmark (the byte-identical contract); at any other
seed the rows must pass semantic checks built on the library's own
helpers.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import math

DEFAULT_SEED = 20250809

_UNIFORM_01_99 = {"kind": "uniform", "params": {"a": 0.01, "b": 0.99}}

CONFIGS = {
    # README sweep config, single-threaded: the plain baseline.
    "sweep": {
        "command": "sweep",
        "params": {"d": 3, "delta": 0.1, "m_list": [8, 32, 128, 512, 2048], "trials": 2000},
        "threads": 1,
    },
    # Acceptance criterion 4 config on the worker pool.
    "genericity": {
        "command": "genericity",
        "params": {"d": 2, "m_list": [16, 64, 256, 1024], "delta_grid": 0.5, "eps": 0.01,
                   "delta_contrast": 0.1, "trials": 200, "n_mc": 2000},
        "threads": 2,
    },
    # README spurious config.
    "spurious": {
        "command": "spurious",
        "params": {"m": 5, "rotation_deg": 30, "darmois_resolution": 512, "n_mc": 2000},
        "threads": 1,
    },
    # README reparam config plus two configs from acceptance criterion 10.
    "reparam": {
        "command": "reparam",
        "params": {
            "n_mc": 2000,
            "configs": [
                {"map": {"family": "grid", "d": 2, "m": 24, "delta": 0.5, "eps": 0.02},
                 "source": [_UNIFORM_01_99] * 2,
                 "perm": [1, 0],
                 "transforms": [{"kind": "cube"}, {"kind": "affine", "a": 0.5, "b": 0.25}]},
                {"map": {"family": "grid", "d": 3, "m": 40, "delta": 0.5, "eps": 0.02},
                 "source": [_UNIFORM_01_99] * 3,
                 "perm": [2, 0, 1],
                 "transforms": [{"kind": "cube"}, {"kind": "affine", "a": 0.5, "b": 0.25},
                                {"kind": "cube"}]},
                {"map": {"family": "conformal", "d": 2, "m": 7},
                 "source": [{"kind": "gaussian", "params": {"mu": 0.0, "sigma": 1.0}}] * 2,
                 "perm": [1, 0],
                 "transforms": [{"kind": "tanh"}, {"kind": "affine", "a": -1.5, "b": 0.2}]},
            ],
        },
        "threads": 1,
    },
}

#: SHA-256 of each workload's CSV at DEFAULT_SEED, recorded at the commit
#: that added this benchmark.  genericity was recorded at threads=1 and is
#: checked at threads=2, so the digest also pins thread-count independence.
DIGESTS = {
    "sweep": "c5075fe8b98cd1de8745eb629b9feb74cf927ef92d8f53dabe280ed1d297a0f7",
    "genericity": "06814072765e3d42d04054cfa9d095518bedd014319298b1d94ebdd2cc796150",
    "spurious": "fe004237264de1a79fee88f33fcfc1532cda0ff80c7cc3bb4680231cf3d66401",
    "reparam": "84ba6bda5874f40c3370e7afc6c041d7351c69a3f68e3841c5d3c721a3faced3",
}


def run_config(name: str, seed: int, output_dir: str, threads: int | None = None) -> dict:
    config = copy.deepcopy(CONFIGS[name])
    config["master_seed"] = seed
    config["output_dir"] = output_dir
    if threads is not None:
        config["threads"] = threads
    return config


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(name: str, seed: int, data: bytes) -> list[str]:
    """Problems found in one run's CSV bytes; an empty list means correct."""
    if seed == DEFAULT_SEED:
        got = digest(data)
        return [] if got == DIGESTS[name] else [f"{name}: CSV digest {got} != recorded {DIGESTS[name]}"]
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"{name}: unreadable CSV ({exc})"]
    if not rows:
        return [f"{name}: CSV has no rows"]
    try:
        return _SEMANTIC[name](rows)
    except (KeyError, ValueError) as exc:
        return [f"{name}: malformed row ({exc!r})"]


def _check_sweep(rows) -> list[str]:
    from ima_lab.experiments import trend_nondecreasing

    params = CONFIGS["sweep"]["params"]
    problems = []
    if [int(r["m"]) for r in rows] != sorted(params["m_list"]):
        problems.append("sweep: rows do not cover m_list in order")
    successes = [float(r["empirical_success"]) for r in rows]
    if not all(0.0 <= p <= 1.0 for p in successes):
        problems.append(f"sweep: success fraction outside [0, 1]: {successes}")
    if not trend_nondecreasing(successes, params["trials"]):
        problems.append(f"sweep: success fractions not non-decreasing: {successes}")
    return problems


def _check_genericity(rows) -> list[str]:
    from ima_lab.experiments import expected_boundary_fraction

    params = CONFIGS["genericity"]["params"]
    expected = expected_boundary_fraction(params["d"], params["delta_grid"], params["eps"])
    draws = params["trials"] * params["n_mc"]
    # 5 binomial sigmas: a false alarm on any of the rows is below 1e-5.
    tol = 5.0 * math.sqrt(expected * (1.0 - expected) / draws)
    problems = []
    if [int(r["m"]) for r in rows] != sorted(params["m_list"]):
        problems.append("genericity: rows do not cover m_list in order")
    for r in rows:
        frac = float(r["boundary_fraction_mean"])
        if abs(frac - expected) > tol:
            problems.append(f"genericity m={r['m']}: boundary fraction {frac} not within "
                            f"{tol:.2e} of {expected}")
        if not 0.0 <= float(r["empirical_success"]) <= 1.0:
            problems.append(f"genericity m={r['m']}: success fraction outside [0, 1]")
    return problems


def _check_spurious(rows) -> list[str]:
    problems = []
    by_branch = {r["branch"]: r for r in rows}
    if sorted(by_branch) != ["spurious_darmois", "spurious_mpa", "truth_darmois", "truth_mpa"]:
        return [f"spurious: unexpected branches {sorted(by_branch)}"]
    for name, r in by_branch.items():
        flag = "is_zero" if name.startswith("truth") else "exceeds_gap"
        if r[flag] != "true":
            problems.append(f"spurious: {name} has {flag}={r[flag]} (mean {r['mean']})")
    return problems


def _check_reparam(rows) -> list[str]:
    n_configs = len(CONFIGS["reparam"]["params"]["configs"])
    problems = []
    if [int(r["config_index"]) for r in rows] != list(range(n_configs)):
        problems.append("reparam: rows do not cover every config in order")
    for r in rows:
        if r["within_3sigma"] != "true":
            problems.append(f"reparam config {r['config_index']}: difference "
                            f"{r['abs_difference']} outside 3 sigma")
    return problems


_SEMANTIC = {
    "sweep": _check_sweep,
    "genericity": _check_genericity,
    "spurious": _check_spurious,
    "reparam": _check_reparam,
}
