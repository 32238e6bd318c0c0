"""Command-line front end.

One JSON config file per run; flags override only the master seed, the
thread count, and the output directory.  Each run writes
``<command>.csv`` plus ``manifest.json`` into the output directory.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
Errors are also written as structured JSON to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .contrast import local_ima_contrast
from .distributions import (
    FactorialDistribution,
    SphericalSampler,
    law_from_config,
)
from . import schema
from .errors import DomainError, NumericalError, ValidationError
from .experiments import (
    ContrastEstimate,
    ReparamRow,
    concentration_sweep,
    estimate_global_contrast,
    gap_report_rows,
    genericity_experiment,
    reparam_invariance_check,
    rows_to_csv,
    spurious_gap_experiment,
    transform_from_config,
)
from .mixing import random_conformal_map, sample_grid_map
from .mpa import rotation_matrix_2d

SEED_ENV_VAR = "IMA_LAB_SEED"

_COMMANDS = ("contrast", "sweep", "genericity", "spurious", "reparam")


def _dimension(desc: dict, key: str) -> int:
    if key not in desc:
        raise ValidationError(f"map family {desc['family']!r} needs {key!r} in its descriptor")
    value = schema.integer(desc[key], f"map descriptor {key!r}")
    if value < 1:
        raise DomainError(f"map descriptor {key!r} must be >= 1, got {value}")
    return value


def _build_map(desc: dict, seed: int):
    schema.require_keys(
        desc,
        {"family": True, "d": False, "m": False, "delta": False, "eps": False,
         "seed": False, "matrix": False, "scale": False, "with_inversion": False,
         "radial": False},
        "map descriptor",
    )
    family = desc["family"]
    map_seed = schema.integer(desc.get("seed", seed), "map descriptor 'seed'")
    if family == "linear":
        from .mixing import LinearMap

        if "matrix" in desc:
            return LinearMap(schema.real_array(desc["matrix"], "map descriptor 'matrix'"))
        m, d = _dimension(desc, "m"), _dimension(desc, "d")
        sampler = _sampler_factory(desc.get("radial", "chi"))(m)
        from .distributions import sample_isotropic_matrix

        return LinearMap(sample_isotropic_matrix(m, d, sampler, map_seed))
    if family == "grid":
        m, d = _dimension(desc, "m"), _dimension(desc, "d")
        if "delta" not in desc:
            raise ValidationError("map family 'grid' needs 'delta' in its descriptor")
        sampler = _sampler_factory(desc.get("radial", "chi"))(m)
        return sample_grid_map(
            d, m, schema.real(desc["delta"], "map descriptor 'delta'"), sampler,
            schema.real(desc.get("eps", 0.0), "map descriptor 'eps'"), map_seed,
        )
    if family == "conformal":
        return random_conformal_map(
            _dimension(desc, "d"), _dimension(desc, "m"), map_seed,
            scale=schema.real(desc.get("scale", 1.0), "map descriptor 'scale'"),
            with_inversion=schema.boolean(desc.get("with_inversion", False),
                                          "map descriptor 'with_inversion'"),
        )
    raise ValidationError(f"unknown map family {family!r}")


def _sampler_factory(radial: str):
    if radial == "chi":
        return SphericalSampler.standard_gaussian
    if radial == "unit":
        return SphericalSampler.unit
    raise ValidationError(f"unknown radial kind {radial!r}; expected 'chi' or 'unit'")


def _source_from_config(cfg) -> FactorialDistribution:
    return FactorialDistribution.from_config(cfg)


def _integers(value, where: str) -> list[int]:
    return [schema.integer(v, where) for v in schema.array(value, where)]


# ---------------------------------------------------------------------------
# per-command runners: config schema -> rows
# ---------------------------------------------------------------------------

def _run_contrast(params: dict, seed: int, threads: int):
    schema.require_keys(
        params,
        {"matrix": False, "map": False, "source": False, "n_samples": False},
        "contrast params",
    )
    if ("matrix" in params) == ("map" in params):
        raise ValidationError("contrast takes exactly one of 'matrix' or 'map'")
    if "matrix" in params:
        value = local_ima_contrast(schema.real_array(params["matrix"], "contrast 'matrix'"))
        est = ContrastEstimate(mean=value, stderr=0.0, n_samples=1, clamp_count=0, rejection_count=0)
        return [est]
    if "source" not in params:
        raise ValidationError("map-based contrast needs a 'source' law list")
    mapping = _build_map(params["map"], seed)
    source = _source_from_config(params["source"])
    n = schema.integer(params.get("n_samples", 2000), "contrast 'n_samples'")
    return [estimate_global_contrast(mapping, source, n, seed)]


def _run_sweep(params: dict, seed: int, threads: int):
    schema.require_keys(
        params,
        {"d": True, "delta": True, "m_list": True, "trials": True,
         "kappa": False, "radial": False},
        "sweep params",
    )
    return concentration_sweep(
        d=schema.integer(params["d"], "sweep 'd'"),
        delta=schema.real(params["delta"], "sweep 'delta'"),
        m_list=_integers(params["m_list"], "sweep 'm_list'"),
        trials=schema.integer(params["trials"], "sweep 'trials'"),
        sampler_factory=_sampler_factory(params.get("radial", "chi")),
        kappa=schema.real(params.get("kappa", 1.0), "sweep 'kappa'"),
        seed=seed,
        threads=threads,
    )


def _run_genericity(params: dict, seed: int, threads: int):
    schema.require_keys(
        params,
        {"d": True, "m_list": True, "delta_grid": True, "eps": True,
         "delta_contrast": True, "trials": True, "n_mc": True},
        "genericity params",
    )
    return genericity_experiment(
        d=schema.integer(params["d"], "genericity 'd'"),
        m_list=_integers(params["m_list"], "genericity 'm_list'"),
        delta_grid=schema.real(params["delta_grid"], "genericity 'delta_grid'"),
        eps=schema.real(params["eps"], "genericity 'eps'"),
        delta_contrast=schema.real(params["delta_contrast"], "genericity 'delta_contrast'"),
        trials=schema.integer(params["trials"], "genericity 'trials'"),
        n_mc=schema.integer(params["n_mc"], "genericity 'n_mc'"),
        seed=seed,
        threads=threads,
    )


def _run_spurious(params: dict, seed: int, threads: int):
    schema.require_keys(
        params,
        {"m": False, "source": False, "rotation_deg": False,
         "darmois_resolution": False, "n_mc": False, "floor": False},
        "spurious params",
    )
    source = _source_from_config(params["source"]) if "source" in params else None
    rotation = None
    if "rotation_deg" in params:
        angle = schema.real(params["rotation_deg"], "spurious 'rotation_deg'")
        rotation = rotation_matrix_2d(np.radians(angle))
    report = spurious_gap_experiment(
        m=schema.integer(params.get("m", 5), "spurious 'm'"),
        source=source,
        rotation=rotation,
        darmois_resolution=schema.integer(params.get("darmois_resolution", 512),
                                          "spurious 'darmois_resolution'"),
        n_mc=schema.integer(params.get("n_mc", 2000), "spurious 'n_mc'"),
        floor=schema.real(params.get("floor", 1e-3), "spurious 'floor'"),
        seed=seed,
    )
    return gap_report_rows(report)


def _run_reparam(params: dict, seed: int, threads: int):
    schema.require_keys(params, {"configs": True, "n_mc": False}, "reparam params")
    n = schema.integer(params.get("n_mc", 2000), "reparam 'n_mc'")
    rows = []
    for idx, cfg in enumerate(schema.array(params["configs"], "reparam 'configs'")):
        where = f"reparam config {idx}"
        schema.require_keys(
            cfg, {"map": True, "source": True, "perm": True, "transforms": True}, where,
        )
        from .seeding import substream

        mapping = _build_map(cfg["map"], substream(seed, idx, 0))
        source = _source_from_config(cfg["source"])
        perm = _integers(cfg["perm"], f"{where} 'perm'")
        transforms = [
            transform_from_config(t) for t in schema.array(cfg["transforms"], f"{where} 'transforms'")
        ]
        report = reparam_invariance_check(
            mapping, source, perm, transforms, n, substream(seed, idx, 1)
        )
        rows.append(
            ReparamRow(
                config_index=idx,
                perm="-".join(str(p) for p in perm),
                transforms="|".join(t["kind"] for t in cfg["transforms"]),
                n_samples=n,
                mean_base=report.mean_base,
                stderr_base=report.stderr_base,
                mean_reparam=report.mean_reparam,
                stderr_reparam=report.stderr_reparam,
                abs_difference=report.abs_difference,
                combined_stderr=report.combined_stderr,
                within_3sigma=report.within_tolerance,
            )
        )
    return rows


_RUNNERS = {
    "contrast": _run_contrast,
    "sweep": _run_sweep,
    "genericity": _run_genericity,
    "spurious": _run_spurious,
    "reparam": _run_reparam,
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_run_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return validate_run_config(config)


def validate_run_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ValidationError("run config must be a JSON object")
    schema.require_keys(
        config,
        {"command": True, "params": True, "master_seed": False,
         "threads": False, "output_dir": False},
        "run config",
    )
    if config["command"] not in _COMMANDS:
        raise ValidationError(f"unknown command {config['command']!r}; expected one of {_COMMANDS}")
    if not isinstance(config["params"], dict):
        raise ValidationError("'params' must be an object")
    seed = config.get("master_seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ValidationError("'master_seed' must be a 64-bit unsigned integer")
    threads = config.get("threads", 1)
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        raise ValidationError("'threads' must be an integer >= 1")
    return config


def run(config: dict) -> int:
    """Execute a validated run config; returns the process exit code."""
    config = validate_run_config(config)
    command = config["command"]
    seed = int(config.get("master_seed", 0))
    threads = int(config.get("threads", 1))
    output_dir = config.get("output_dir", ".")
    started = time.time()
    rows = _RUNNERS[command](config["params"], seed, threads)
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{command}.csv")
    rows_to_csv(csv_path, rows)
    manifest = {
        "command": command,
        "config": {
            "command": command,
            "params": config["params"],
            "master_seed": seed,
            "threads": threads,
            "output_dir": output_dir,
        },
        "master_seed": seed,
        "wall_time_s": time.time() - started,
        "version": __version__,
    }
    with open(os.path.join(output_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _error_json(kind: str, exc: Exception) -> str:
    return json.dumps({"error": kind, "type": type(exc).__name__, "message": str(exc)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ima-lab",
        description=(
            "Jacobian column-orthogonality contrast for manifold mixing functions: "
            "one-off contrasts, concentration sweeps, genericity experiments, "
            "spurious-solution gaps, and reparametrization-invariance checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "contrast": "one-off contrast of an explicit matrix or a sampled map",
        "sweep": "success fraction of isotropic linear maps vs ambient dimension",
        "genericity": "success fraction of smoothed grid maps vs ambient dimension",
        "spurious": "contrast gap between a conformal truth and its spurious companions",
        "reparam": "paired invariance check under permutation and element-wise reparametrization",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument(
            "--seed", type=int, default=None,
            help=f"master seed override (default: config value, or ${SEED_ENV_VAR}, or 0)",
        )
        p.add_argument("--threads", type=int, default=None,
                       help="worker pool size override (default: config value or 1)")
        p.add_argument("--output-dir", default=None,
                       help="output directory override (default: config value or '.')")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_run_config(args.config)
        if config["command"] != args.command:
            raise ValidationError(
                f"config names command {config['command']!r} but {args.command!r} was invoked"
            )
        if args.seed is not None:
            config["master_seed"] = args.seed
        elif SEED_ENV_VAR in os.environ:
            try:
                config["master_seed"] = int(os.environ[SEED_ENV_VAR])
            except ValueError as exc:
                raise ValidationError(f"${SEED_ENV_VAR} must be an integer") from exc
        if args.threads is not None:
            config["threads"] = args.threads
        if args.output_dir is not None:
            config["output_dir"] = args.output_dir
        return run(config)
    except ValidationError as exc:
        print(_error_json("validation", exc), file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(_error_json("numerical", exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
