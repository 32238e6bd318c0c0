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
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, schema
from .contrast import local_contrast_unclamped
from .distributions import FactorialDistribution, SphericalSampler, sample_isotropic_matrix
from .errors import DomainError, NumericalError, OutOfDomainError, ValidationError
from .experiments import (
    ReparamRow,
    _estimate_from_values,
    check_reparam,
    concentration_sweep,
    estimate_global_contrast,
    genericity_experiment,
    reparam_invariance_check,
    rows_to_csv,
    spurious_gap_experiment,
    transform_from_config,
)
from .mixing import FULL_SPACE, UNIT_CUBE, LinearMap, check_grid, random_conformal_map, sample_grid_map
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


@dataclass(frozen=True)
class _MapSpec:
    """A map descriptor, checked now and built later by calling it with
    the seed that an absent 'seed' key takes.  Like a built map it names
    its input dimension ``d`` and its ``domain``."""

    family: str
    args: dict
    d: int

    @property
    def domain(self) -> str:
        return UNIT_CUBE if self.family == "grid" else FULL_SPACE

    def __call__(self, seed: int):
        args = {"seed": seed, **self.args}
        radial = args.pop("radial", None)
        if self.family == "conformal":
            return random_conformal_map(**args)
        if self.family == "grid":
            return sample_grid_map(sampler=radial(args["m"]) if radial else None, **args)
        if "matrix" in args:
            return LinearMap(args["matrix"])
        m = args["m"]
        return LinearMap(sample_isotropic_matrix(m, args["d"], radial(m) if radial else None, args["seed"]))

    def check_source(self, source: FactorialDistribution, where: str) -> None:
        """Refuse, before any map is built or draw made, a source of
        another dimension than the map's, and one whose support leaves a
        grid map's domain, the unit cube (the other families take all of
        R^d)."""
        if source.dim != self.d:
            raise ValidationError(f"{where}: source dimension {source.dim} != map input dimension {self.d}")
        for i, (lo, hi) in enumerate(law.support for law in source.components):
            if self.domain == UNIT_CUBE and (lo < 0.0 or hi > 1.0):
                raise OutOfDomainError(f"{where}: source law {i} has support ({lo:g}, {hi:g}), "
                                       "which leaves the unit cube of a 'grid' map")


def _map_descriptor(desc, where: str) -> _MapSpec:
    """The descriptor's spec, refused unless its map has 1 <= d <= m and
    its family's own parameters are in their domains (an explicit matrix
    is read for its shape, and its entries checked, now; the keys that
    would draw one are refused next to it)."""
    family, args = schema.choice(desc, "family", _MAP_FAMILIES, where)
    if family == "grid":
        check_grid(args["delta"], args.get("eps", 0.0))
    if not args.get("scale", 1.0) > 0.0:
        raise DomainError(f"{where}: conformal scale must be positive, got {args['scale']}")
    if "matrix" in args:
        if len(args) > 1:
            raise ValidationError(f"{where}: a 'matrix' takes none of {sorted(args.keys() - {'matrix'})}")
        m, d = LinearMap(args["matrix"]).J.shape
    elif {"m", "d"} <= args.keys():
        m, d = args["m"], args["d"]
    else:
        raise ValidationError(f"{where} of family 'linear' needs 'matrix', or 'm' and 'd'")
    if not 1 <= d <= m:
        raise DomainError(f"{where} needs 1 <= d <= m, got d={d}, m={m}")
    return _MapSpec(family, args, d)


# ---------------------------------------------------------------------------
# per-command params tables and runners: validated params -> rows
# ---------------------------------------------------------------------------

_CONTRAST = {
    "matrix": (schema.real_array, OPTIONAL),
    "map": (_map_descriptor, OPTIONAL),
    "source": (FactorialDistribution.from_config, OPTIONAL),
    "n_samples": (schema.integer, OPTIONAL),
}


def _run_contrast(args: dict, seed: int, threads: int):
    if ("matrix" in args) == ("map" in args):
        raise ValidationError("contrast takes exactly one of 'matrix' or 'map'")
    if "matrix" in args:
        if args.keys() & {"source", "n_samples"}:
            raise ValidationError("contrast of a 'matrix' takes no 'source' or 'n_samples'")
        return [_estimate_from_values(np.array([local_contrast_unclamped(args["matrix"])]))]
    if "source" not in args:
        raise ValidationError("map-based contrast needs a 'source' law list")
    args["map"].check_source(args["source"], "contrast params")
    n = args.get("n_samples", 2000)
    if n < 1:
        raise DomainError(f"contrast params: n_samples must be >= 1, got {n}")
    return [estimate_global_contrast(args["map"](seed), args["source"], n, seed)]


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
    return spurious_gap_experiment(**args, seed=seed).branches()


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
    for i, cfg in enumerate(configs):
        cfg["map"].check_source(cfg["source"], f"reparam config {i}")
        check_reparam(cfg["map"], cfg["source"], cfg["perm"], cfg["transforms"])
    rows = []
    for idx, (cfg, raw) in enumerate(zip(configs, args["configs"])):
        report = reparam_invariance_check(
            cfg["map"](substream(seed, idx, 0)), cfg["source"], cfg["perm"], cfg["transforms"],
            n, substream(seed, idx, 1),
        )
        rows.append(ReparamRow(config_index=idx, perm="-".join(str(p) for p in cfg["perm"]),
                               transforms="|".join(t["kind"] for t in raw["transforms"]),
                               **asdict(report)))
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
    value = schema.integer(value, where)
    if not 0 <= value < 2**64:
        raise ValidationError(f"{where} must be a 64-bit unsigned integer, got {value!r}")
    return value


def _threads(value, where: str) -> int:
    value = schema.integer(value, where)
    if value < 1:
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
    started = time.perf_counter()
    table, runner = _RUNNERS[command]
    args = schema.read(config["params"], table, f"{command} params")
    try:
        os.makedirs(output_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output_dir {output_dir!r}: {exc}") from exc
    rows = runner(args, config["master_seed"], config["threads"])
    path = os.path.join(output_dir, f"{command}.csv")
    try:
        rows_to_csv(path, rows)
        manifest = {
            "command": command,
            "config": config,
            "environment": _environment(config["threads"]),
            "master_seed": config["master_seed"],
            "wall_time_s": time.perf_counter() - started,
            "version": __version__,
        }
        path = os.path.join(output_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc
    return 0


def _environment(threads: int) -> dict:
    """The numerical environment of a run, for its manifest."""
    import platform  # both loaded already, by numpy and the laws' scipy.special:
    import scipy  # no import cost, and setup time does not move

    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "threads": threads,
    }


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
