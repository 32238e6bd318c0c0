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

from . import __version__, schema
from .contrast import local_ima_contrast
from .distributions import FactorialDistribution, SphericalSampler, sample_isotropic_matrix
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
from .mixing import LinearMap, random_conformal_map, sample_grid_map
from .mpa import rotation_matrix_2d
from .schema import OPTIONAL, REQUIRED
from .seeding import substream

SEED_ENV_VAR = "IMA_LAB_SEED"


def _integers(value, where: str) -> list[int]:
    return [schema.integer(v, where) for v in schema.array(value, where)]


def _transforms(value, where: str) -> list:
    return [transform_from_config(t) for t in schema.array(value, where)]


#: table entries shared below: a required integer, a required number, and
#: the optional keys of every map descriptor
_INTEGER = (schema.integer, REQUIRED)
_REAL = (schema.real, REQUIRED)
_SEED = (schema.integer, OPTIONAL)
_RADIAL = (schema.lookup({"chi": SphericalSampler.standard_gaussian, "unit": SphericalSampler.unit}),
           OPTIONAL)

#: map family -> table of its descriptor keys besides 'family'
_MAP_FAMILIES = {
    "linear": {"matrix": (schema.real_array, OPTIONAL), "d": (schema.integer, OPTIONAL),
               "m": (schema.integer, OPTIONAL), "seed": _SEED, "radial": _RADIAL},
    "grid": {"d": _INTEGER, "m": _INTEGER, "delta": _REAL, "eps": (schema.real, OPTIONAL),
             "seed": _SEED, "radial": _RADIAL},
    "conformal": {"d": _INTEGER, "m": _INTEGER, "seed": _SEED, "scale": (schema.real, OPTIONAL),
                  "with_inversion": (schema.boolean, OPTIONAL)},
}


def _map_descriptor(desc, where: str):
    """A map descriptor, checked now and built later: a function of the
    seed that an absent 'seed' key takes."""
    family, args = schema.choice(desc, "family", _MAP_FAMILIES, where)
    if family == "linear" and "matrix" not in args and not {"m", "d"} <= args.keys():
        raise ValidationError(f"{where} of family 'linear' needs 'matrix', or 'm' and 'd'")
    return lambda seed: _build_map(family, {"seed": seed, **args})


def _build_map(family: str, args: dict):
    radial = args.pop("radial", None)
    if family == "conformal":
        return random_conformal_map(**args)
    if family == "grid":
        return sample_grid_map(sampler=radial(args["m"]) if radial else None, **args)
    if "matrix" in args:
        return LinearMap(args["matrix"])
    m = args["m"]
    return LinearMap(sample_isotropic_matrix(m, args["d"], radial(m) if radial else None, args["seed"]))


# ---------------------------------------------------------------------------
# per-command params tables and runners: validated params -> rows
# ---------------------------------------------------------------------------

_CONTRAST = {
    "matrix": (schema.real_array, OPTIONAL),
    "map": (_map_descriptor, OPTIONAL),
    "source": (FactorialDistribution.from_config, OPTIONAL),
    "n_samples": (schema.integer, 2000),
}


def _run_contrast(args: dict, seed: int, threads: int):
    if ("matrix" in args) == ("map" in args):
        raise ValidationError("contrast takes exactly one of 'matrix' or 'map'")
    if "matrix" in args:
        value = local_ima_contrast(args["matrix"])
        return [ContrastEstimate(mean=value, stderr=0.0, n_samples=1, clamp_count=0, rejection_count=0)]
    if "source" not in args:
        raise ValidationError("map-based contrast needs a 'source' law list")
    return [estimate_global_contrast(args["map"](seed), args["source"], args["n_samples"], seed)]


_SWEEP = {
    "d": _INTEGER,
    "delta": _REAL,
    "m_list": (_integers, REQUIRED),
    "trials": _INTEGER,
    "kappa": (schema.real, OPTIONAL),
    "radial": _RADIAL,
}


def _run_sweep(args: dict, seed: int, threads: int):
    if "radial" in args:
        args["sampler_factory"] = args.pop("radial")
    return concentration_sweep(**args, seed=seed, threads=threads)


_GENERICITY = {
    "d": _INTEGER,
    "m_list": (_integers, REQUIRED),
    "delta_grid": _REAL,
    "eps": _REAL,
    "delta_contrast": _REAL,
    "trials": _INTEGER,
    "n_mc": _INTEGER,
}


def _run_genericity(args: dict, seed: int, threads: int):
    return genericity_experiment(**args, seed=seed, threads=threads)


_SPURIOUS = {
    "m": (schema.integer, OPTIONAL),
    "source": (FactorialDistribution.from_config, OPTIONAL),
    "rotation_deg": (schema.real, OPTIONAL),
    "darmois_resolution": (schema.integer, OPTIONAL),
    "n_mc": (schema.integer, OPTIONAL),
    "floor": (schema.real, OPTIONAL),
}


def _run_spurious(args: dict, seed: int, threads: int):
    if "rotation_deg" in args:
        args["rotation"] = rotation_matrix_2d(np.radians(args.pop("rotation_deg")))
    return gap_report_rows(spurious_gap_experiment(**args, seed=seed))


_REPARAM = {"configs": (schema.array, REQUIRED), "n_mc": (schema.integer, 2000)}

_REPARAM_CONFIG = {
    "map": (_map_descriptor, REQUIRED),
    "source": (FactorialDistribution.from_config, REQUIRED),
    "perm": (_integers, REQUIRED),
    "transforms": (_transforms, REQUIRED),
}


def _run_reparam(args: dict, seed: int, threads: int):
    n = args["n_mc"]
    configs = [schema.read(c, _REPARAM_CONFIG, f"reparam config {i}")
               for i, c in enumerate(args["configs"])]
    if not configs or n < 1:
        raise DomainError(f"reparam needs a config and n_mc >= 1, got {len(configs)} configs, n_mc {n}")
    rows = []
    for idx, (cfg, raw) in enumerate(zip(configs, args["configs"])):
        report = reparam_invariance_check(
            cfg["map"](substream(seed, idx, 0)), cfg["source"], cfg["perm"], cfg["transforms"],
            n, substream(seed, idx, 1),
        )
        rows.append(
            ReparamRow(
                config_index=idx,
                perm="-".join(str(p) for p in cfg["perm"]),
                transforms="|".join(t["kind"] for t in raw["transforms"]),
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


#: command -> (params table, runner)
_RUNNERS = {
    "contrast": (_CONTRAST, _run_contrast),
    "sweep": (_SWEEP, _run_sweep),
    "genericity": (_GENERICITY, _run_genericity),
    "spurious": (_SPURIOUS, _run_spurious),
    "reparam": (_REPARAM, _run_reparam),
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _master_seed(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ValidationError(f"{where} must be a 64-bit unsigned integer, got {value!r}")
    return value


def _threads(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{where} must be an integer >= 1, got {value!r}")
    return value


def _directory(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where} must be a non-empty path, got {value!r}")
    return value


_RUN_CONFIG = {
    "command": (schema.lookup({name: name for name in _RUNNERS}), REQUIRED),
    "params": (schema.mapping, REQUIRED),
    "master_seed": (_master_seed, 0),
    "threads": (_threads, 1),
    "output_dir": (_directory, "."),
}


def load_run_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    return validate_run_config(config)


def validate_run_config(config: dict) -> dict:
    """The run config with its defaults filled in; ``params`` is checked
    by the command's own table when the command runs."""
    return schema.read(config, _RUN_CONFIG, "run config")


def run(config: dict) -> int:
    """Execute a validated run config; returns the process exit code."""
    config = validate_run_config(config)
    command, output_dir = config["command"], config["output_dir"]
    started = time.time()
    table, runner = _RUNNERS[command]
    rows = runner(schema.read(config["params"], table, f"{command} params"),
                  config["master_seed"], config["threads"])
    os.makedirs(output_dir, exist_ok=True)
    rows_to_csv(os.path.join(output_dir, f"{command}.csv"), rows)
    manifest = {
        "command": command,
        "config": config,
        "master_seed": config["master_seed"],
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
    for name in _RUNNERS:
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
