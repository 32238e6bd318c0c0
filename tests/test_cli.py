import contextlib
import copy
import functools
import hashlib
import io
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from ima_lab import cli, distributions, mpa, schema
from ima_lab.contrast import local_ima_contrast
from ima_lab.cli import SEED_ENV_VAR, build_parser, main, run, validate_run_config
from ima_lab.errors import ValidationError


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_UNIFORM = {"kind": "uniform", "params": {"a": 0.01, "b": 0.99}}
_LAPLACE = {"kind": "laplace", "params": {"mu": 0.0, "b": 1.0}}

SWEEP_CONFIG = {
    "command": "sweep",
    "params": {"d": 2, "delta": 0.2, "m_list": [8, 16], "trials": 50},
    "master_seed": 99,
}


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self):
        bad = dict(SWEEP_CONFIG, typo_key=1)
        with pytest.raises(ValidationError):
            validate_run_config(bad)

    def test_unknown_param_key_rejected(self, tmp_path, capsys):
        cfg = {
            "command": "sweep",
            "params": {"d": 2, "delta": 0.2, "m_list": [8], "trials": 10, "bogus": 1},
        }
        path = write_config(tmp_path, "bad.json", cfg)
        code = main(["sweep", "--config", path, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_bad_seed_type(self):
        bad = dict(SWEEP_CONFIG, master_seed="seven")
        with pytest.raises(ValidationError):
            validate_run_config(bad)

    @pytest.mark.parametrize("key", ["master_seed", "threads"])
    def test_integral_floats_are_read_as_integers(self, key):
        config = validate_run_config(dict(SWEEP_CONFIG, **{key: 1.0}))
        assert config[key] == 1 and type(config[key]) is int

    @pytest.mark.parametrize("key, bad", [
        ("master_seed", True), ("master_seed", False), ("master_seed", -1), ("master_seed", -1.0),
        ("master_seed", 2**64), ("master_seed", 1.5), ("master_seed", "7"),
        ("threads", True), ("threads", 0), ("threads", 0.0), ("threads", -2), ("threads", 2.5),
        ("threads", None),
    ])
    def test_bools_and_out_of_range_integers_exit_2(self, key, bad):
        with pytest.raises(ValidationError):
            validate_run_config(dict(SWEEP_CONFIG, **{key: bad}))
        code, err = run_main(dict(SWEEP_CONFIG, **{key: bad}), "sweep")
        assert code == 2
        assert json.loads(err)["error"] == "validation"

    def test_unknown_command(self):
        with pytest.raises(ValidationError):
            validate_run_config({"command": "plot", "params": {}})

    def test_precondition_violation_is_exit_2(self, tmp_path, capsys):
        cfg = {"command": "sweep", "params": {"d": 2, "delta": -0.5, "m_list": [8], "trials": 10}}
        path = write_config(tmp_path, "neg.json", cfg)
        code = main(["sweep", "--config", path, "--output-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("d", [0, -1])
    def test_sweep_without_columns_is_exit_2(self, d):
        config = {"command": "sweep", "params": {"d": d, "delta": 0.2, "m_list": [8], "trials": 10}}
        code, err = run_main(config, "sweep")
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["type"] == "DomainError"

    @pytest.mark.parametrize("command", ["contrast", "reparam"])
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    @pytest.mark.parametrize("law", [{"kind": "uniform", "params": {"a": 0.1, "b": 1.2}},
                                     {"kind": "gaussian", "params": {}},
                                     {"kind": "chi", "params": {"k": 2}}])
    def test_grid_source_outside_the_cube_is_exit_2_before_any_map(self, command, eps, law, monkeypatch):
        # the library refuses such draws too (test_experiments), but only
        # once a map is built and a chunk scored
        def no_work(*args, **kwargs):
            raise AssertionError("built a map or drew a source")

        for name in ("sample_grid_map", "random_conformal_map", "sample_isotropic_matrix",
                     "estimate_global_contrast", "reparam_invariance_check"):
            monkeypatch.setattr(cli, name, no_work)
        grid = {"family": "grid", "d": 2, "m": 20, "delta": 0.5, "eps": eps}
        if command == "contrast":
            config = {"command": "contrast", "params": {"map": grid, "source": [_UNIFORM, law]}}
        else:
            # the last config leaves the cube; the ones before it are never run
            config = copy.deepcopy(REPARAM_CONFIG)
            config["params"]["configs"].append(
                {"map": grid, "source": [_UNIFORM, law], "perm": [0, 1],
                 "transforms": [{"kind": "cube"}, {"kind": "cube"}]})
        code, err = run_main(config, command)
        assert code == 2
        assert "Traceback" not in err
        err = json.loads(err)
        assert err["type"] == "OutOfDomainError"
        assert "source law 1" in err["message"] and "unit cube" in err["message"]

    @pytest.mark.parametrize("base, path, value, error", [
        ("spurious", ("darmois_resolution",), 64, "DomainError"),
        ("spurious", ("source",), [_LAPLACE, {"kind": "uniform", "params": {}}],
         "NonPositiveDensityError"),
        ("spurious", ("source",), [{"kind": "beta", "params": {"alpha": 2.0, "beta": 3.0}}, _LAPLACE],
         "NonPositiveDensityError"),
        ("spurious", ("source",), [_LAPLACE, {"kind": "chi", "params": {"k": 3}}],
         "NonPositiveDensityError"),
        ("spurious", ("m",), 1, "DomainError"),
        ("spurious", ("n_mc",), 0, "DomainError"),
        ("contrast map", ("map",), {"family": "grid", "d": 3, "m": 2, "delta": 0.5, "eps": 0.05},
         "DomainError"),
        ("contrast map", ("map",), {"family": "linear", "matrix": [[1.0], [0.0]]}, "ValidationError"),
        ("contrast map", ("source",), [_UNIFORM] * 3, "ValidationError"),
        ("contrast map", ("n_samples",), 0, "DomainError"),
        ("reparam", ("configs", 2, "map"), {"family": "linear", "d": 0, "m": 4}, "DomainError"),
        ("reparam", ("configs", 2, "map"), {"family": "grid", "d": 3, "m": 2, "delta": 0.5},
         "DomainError"),
        ("reparam", ("configs", 2, "source"), [_UNIFORM] * 3, "ValidationError"),
        ("reparam", ("configs", 2, "perm"), [0, 1, 2], "ValidationError"),
        ("reparam", ("configs", 2, "perm"), [0, 0], "ValidationError"),
        ("reparam", ("configs", 2, "transforms"), [{"kind": "cube"}], "ValidationError"),
        ("reparam", ("configs", 1, "map", "scale"), 0.0, "DomainError"),
        ("reparam", ("configs", 2, "map"), {"family": "grid", "d": 2, "m": 12, "delta": 2.0},
         "DomainError"),
        ("reparam", ("configs", 2, "map"), {"family": "grid", "d": 2, "m": 12, "delta": 0.5, "eps": 0.2},
         "DomainError"),
        # keys a run would ignore: a matrix contrast draws nothing, and a
        # linear map's matrix is not drawn
        ("contrast matrix", ("source",), [_UNIFORM] * 5, "ValidationError"),
        ("contrast matrix", ("n_samples",), 50, "ValidationError"),
        ("contrast map", ("map",), {"family": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                                    "m": 50, "d": 1, "seed": 3, "radial": "unit"}, "ValidationError"),
        ("reparam", ("configs", 2, "map"), {"family": "linear", "matrix": [[1.0, 0.0], [0.0, 1.0]],
                                            "seed": 3}, "ValidationError"),
        # a slope so small that the transform is flat on the probe grid
        ("reparam", ("configs", 1, "transforms", 1), {"kind": "affine", "a": 5e-324}, "NonMonotoneError"),
        # one that overflows there, refused without a numpy warning
        ("reparam", ("configs", 1, "transforms", 1), {"kind": "affine", "a": 1.7e308, "b": 1.7e308},
         "NonMonotoneError"),
    ])
    def test_malformed_configs_exit_2_before_any_work(self, base, path, value, error):
        """Most of these cases once drew or built a map before the refusal
        (spurious after two MPA estimates, reparam after the earlier
        configs ran); ``run_main`` fails a run that exits 2 after that."""
        config = copy.deepcopy(MALFORMED_BASES[base])
        parent = config["params"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, err = run_main(config, config["command"])
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["type"] == error

    @pytest.mark.parametrize("command, key, value", [
        ("genericity", "trials", 0),
        ("genericity", "trials", -1),
        ("genericity", "n_mc", 0),
        ("genericity", "m_list", []),
        ("sweep", "m_list", []),
        ("reparam", "configs", []),
        ("reparam", "n_mc", 0),
    ])
    def test_empty_runs_are_exit_2(self, command, key, value):
        config = copy.deepcopy(MALFORMED_BASES[command])
        config["params"][key] = value
        code, err = run_main(config, command)
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["type"] == "DomainError"

    def test_matrix_without_columns_is_exit_2(self):
        code, err = run_main({"command": "contrast", "params": {"matrix": [[], []]}}, "contrast")
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["type"] == "DomainError"

    @pytest.mark.parametrize("output_dir", [5, None, "", ["out"]])
    def test_output_dir_that_is_not_a_path_is_exit_2(self, output_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = dict(MALFORMED_BASES["contrast matrix"], output_dir=output_dir)
        assert main(["contrast", "--config", write_config(tmp_path, "c.json", config)]) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "ValidationError"
        assert os.listdir(tmp_path) == ["c.json"]

    def test_uncreatable_output_dir_is_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("ran the sweep")

        monkeypatch.setattr(cli, "concentration_sweep", no_work)
        afile = tmp_path / "afile"
        afile.write_text("")
        in_config = write_config(tmp_path, "c.json", dict(SWEEP_CONFIG, output_dir=str(afile)))
        below_a_file = write_config(tmp_path, "s.json", SWEEP_CONFIG)
        for argv in (["sweep", "--config", in_config],
                     ["sweep", "--config", below_a_file, "--output-dir", str(afile / "sub")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert json.loads(err)["type"] == "ValidationError"

    @pytest.mark.parametrize("name", ["contrast.csv", "manifest.json"])
    def test_unwritable_output_file_is_exit_2(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        config = write_config(tmp_path, "c.json", MALFORMED_BASES["contrast matrix"])
        assert main(["contrast", "--config", config, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err)
        assert error["type"] == "ValidationError" and repr(str(out / name)) in error["message"]

    def test_a_law_error_names_its_source_list_index(self):
        config = copy.deepcopy(REPARAM_CONFIG)
        config["params"]["configs"][2]["source"][1] = {"kind": "chi", "params": {"dof": 3}}
        code, err = run_main(config, "reparam")
        assert code == 2
        assert "unknown keys ['dof'] in reparam config 2 'source'[1] 'chi' params" in err
        config["params"]["configs"][2]["source"][1] = {"kind": "gaussian", "params": {"sigma": -1}}
        code, err = run_main(config, "reparam")
        assert code == 2
        assert json.loads(err) == {
            "error": "validation", "type": "DomainError",
            "message": "reparam config 2 'source'[1] 'gaussian' params: gaussian law requires sigma > 0"}

    def test_absent_run_keys_take_their_defaults(self):
        config = validate_run_config({"command": "sweep", "params": {}})
        assert (config["master_seed"], config["threads"], config["output_dir"]) == (0, 1, ".")

    def test_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, "sweep.json", SWEEP_CONFIG)
        assert main(["genericity", "--config", path]) == 2

    def test_a_missing_config_file_is_exit_2(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "cannot read config" in err["message"]

    def test_a_seed_env_var_that_is_not_an_integer_is_exit_2(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, "sweep.json", SWEEP_CONFIG)
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert main(["sweep", "--config", path, "--output-dir", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and SEED_ENV_VAR in err["message"]
        assert not (tmp_path / "out").exists()

    def test_a_number_beyond_float_range_is_exit_2(self):
        # a JSON integer that no float holds: float() overflows, which is
        # read as a non-finite number
        config = copy.deepcopy(SWEEP_CONFIG)
        config["params"]["delta"] = 10**400
        code, err = run_main(config, "sweep")
        assert code == 2
        err = json.loads(err)
        assert err["error"] == "validation" and "'delta' must be finite" in err["message"]

    @pytest.mark.parametrize("base, path, value, message", [
        # draws near 20 saturate tanh at 1.0, whose inverse is infinite
        ("reparam", ("configs", 1, "source", 0, "params", "mu"), 20,
         "InverseElementwiseStage computed non-finite points"),
        # chi(1e300) draws near 1e150, whose cube overflows
        ("reparam", ("configs", 2, "source", 1, "params", "k"), 1e300,
         "a transform took a draw to a non-finite value"),
        ("contrast map", ("source", 0), {"kind": "uniform", "params": {"a": -1e308, "b": 1e308}},
         "a source law drew non-finite values"),
    ])
    def test_a_computed_non_finite_point_is_exit_3(self, base, path, value, message):
        """A non-finite point computed from a valid config is a numerical
        failure, not a malformed config, and it is raised without a numpy
        warning (which the test run makes an error)."""
        config = copy.deepcopy(MALFORMED_BASES[base])
        parent = config["params"]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, err = run_main(config, config["command"])
        assert code == 3
        assert json.loads(err) == {"error": "numerical", "type": "NumericalError", "message": message}

    def test_a_computed_non_finite_jacobian_is_exit_3(self, tmp_path):
        """A transform of slope 1e-320 makes the reparametrized Jacobian
        infinite: a numerical failure of a valid config.  It runs in a
        child process, so that stderr holds all the run wrote there: one
        JSON line, with no numpy warning before it."""
        config = copy.deepcopy(REPARAM_CONFIG)
        config["params"]["configs"] = config["params"]["configs"][1:2]
        config["params"]["configs"][0]["transforms"][1] = {"kind": "affine", "a": 1e-320}
        path = write_config(tmp_path, "reparam.json", config)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        child = subprocess.run(
            [sys.executable, "-m", "ima_lab.cli", "reparam", "--config", path,
             "--output-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 3
        assert len(child.stderr.splitlines()) == 1
        assert json.loads(child.stderr) == {
            "error": "numerical", "type": "NumericalError",
            "message": "computed Jacobian contains non-finite entries"}

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        cfg = {
            "command": "contrast",
            "params": {"matrix": [[1.0, 1.0], [1.0, 1.0]]},  # rank deficient
        }
        path = write_config(tmp_path, "rankdef.json", cfg)
        code = main(["contrast", "--config", path, "--output-dir", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert err["type"] == "RankDeficientError"


class TestHelp:
    def test_every_subcommand_has_help(self, capsys):
        parser = build_parser()
        for cmd in ("contrast", "sweep", "genericity", "spurious", "reparam"):
            with pytest.raises(SystemExit):
                parser.parse_args([cmd, "--help"])
            out = capsys.readouterr().out
            for flag in ("--config", "--seed", "--threads", "--output-dir"):
                assert flag in out


class TestRuns:
    def test_sweep_d1_success_column_all_ones(self, tmp_path):
        cfg = {
            "command": "sweep",
            "params": {"d": 1, "delta": 0.1, "m_list": [4, 8], "trials": 30},
            "master_seed": 5,
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("empirical_success")
        for line in lines[1:]:
            assert line.split(",")[idx] == "1.0"

    def test_contrast_matrix_mode(self, tmp_path):
        cfg = {
            "command": "contrast",
            "params": {"matrix": [[1.0, 1.0], [0.0, 1.0]]},
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        lines = (tmp_path / "out" / "contrast.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "mean"
        assert float(lines[1].split(",")[0]) == pytest.approx(0.34657359027997264)

    @pytest.mark.parametrize("matrix, row", [
        # the README matrix config
        ([[1, 1], [0, 1]], "0.34657359027997275,0.0,1,0,0"),
        # orthonormal columns whose unclamped contrast is -1.1e-16: clamped once
        ([[-0.33753118573948804, 0.4650940464957199],
          [-0.32273703687105976, -0.8738920757018322],
          [-0.8842587311895672, 0.14142194999285024]], "0.0,0.0,1,1,0"),
    ])
    def test_a_matrix_row_counts_its_clamp(self, matrix, row, tmp_path):
        cfg = {"command": "contrast", "params": {"matrix": matrix}, "output_dir": str(tmp_path)}
        assert run(cfg) == 0
        assert (tmp_path / "contrast.csv").read_text().splitlines() == [
            "mean,stderr,n_samples,clamp_count,rejection_count", row]

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160])
    def test_a_matrix_far_from_unit_scale_has_its_contrast(self, scale, tmp_path):
        # the squares of its column norms overflow or leave the normal range
        matrix = [[scale, scale], [0.0, scale]]
        cfg = {"command": "contrast", "params": {"matrix": matrix}, "output_dir": str(tmp_path)}
        assert main(["contrast", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
        mean = float((tmp_path / "contrast.csv").read_text().splitlines()[1].split(",")[0])
        assert mean == pytest.approx(0.34657359027997264, abs=1e-12)

    def test_contrast_map_mode(self, tmp_path):
        cfg = {
            "command": "contrast",
            "params": {
                "map": {"family": "conformal", "d": 2, "m": 6},
                "source": [{"kind": "gaussian", "params": {"mu": 0.0, "sigma": 1.0}}] * 2,
                "n_samples": 200,
            },
            "master_seed": 3,
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        lines = (tmp_path / "out" / "contrast.csv").read_text().splitlines()
        assert float(lines[1].split(",")[0]) <= 1e-8

    def test_contrast_of_a_linear_map_with_a_matrix(self, tmp_path):
        matrix = [[1, 1], [0, 1], [0, 0]]
        cfg = {
            "command": "contrast",
            "params": {"map": {"family": "linear", "matrix": matrix},
                       "source": [{"kind": "gaussian", "params": {}}] * 2, "n_samples": 100},
            "output_dir": str(tmp_path),
        }
        assert main(["contrast", "--config", write_config(tmp_path, "c.json", cfg)]) == 0
        header, row = (tmp_path / "contrast.csv").read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["mean"]) == pytest.approx(local_ima_contrast(np.array(matrix, float)), abs=1e-12)
        assert float(values["mean"]) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert (values["n_samples"], values["clamp_count"], values["rejection_count"]) == ("100", "0", "0")

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run(dict(SWEEP_CONFIG, output_dir=out_a))
        run(dict(SWEEP_CONFIG, output_dir=out_b))
        assert sha256(os.path.join(out_a, "sweep.csv")) == sha256(os.path.join(out_b, "sweep.csv"))

    def test_thread_count_leaves_csv_identical(self, tmp_path):
        out_a = str(tmp_path / "t1")
        out_b = str(tmp_path / "t4")
        run(dict(SWEEP_CONFIG, output_dir=out_a, threads=1))
        run(dict(SWEEP_CONFIG, output_dir=out_b, threads=4))
        assert sha256(os.path.join(out_a, "sweep.csv")) == sha256(os.path.join(out_b, "sweep.csv"))

    def test_threads_flag_leaves_the_readme_genericity_csv_identical(self, tmp_path):
        block = next(b for b in README_CONFIGS if json.loads(b)["command"] == "genericity")
        path = write_config(tmp_path, "genericity.json", json.loads(block))
        digests = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert main(["genericity", "--config", path, "--threads", str(threads),
                         "--output-dir", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["threads"] == manifest["environment"]["threads"] == threads
            digests.append(sha256(out / "genericity.csv"))
        assert digests[0] == digests[1]

    def test_manifest_roundtrips_to_valid_config(self, tmp_path):
        out = str(tmp_path / "out")
        run(dict(SWEEP_CONFIG, output_dir=out))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        rebuilt = validate_run_config(manifest["config"])
        assert rebuilt["command"] == "sweep"
        assert rebuilt["master_seed"] == 99
        # and re-running the echoed config reproduces the CSV
        out2 = str(tmp_path / "out2")
        rebuilt = dict(rebuilt, output_dir=out2)
        run(rebuilt)
        assert sha256(os.path.join(out, "sweep.csv")) == sha256(os.path.join(out2, "sweep.csv"))

    def test_manifest_wall_time_ignores_a_clock_step(self, tmp_path, monkeypatch):
        # the wall clock steps back by a day between any two reads
        clock = itertools.count(1e9, -86400.0)
        monkeypatch.setattr(cli.time, "time", lambda: next(clock))
        run(dict(SWEEP_CONFIG, output_dir=str(tmp_path)))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert 0.0 <= manifest["wall_time_s"] < 60.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_manifest_records_the_environment(self, tmp_path, threads):
        run(dict(SWEEP_CONFIG, output_dir=str(tmp_path), threads=threads))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest) == {"command", "config", "environment", "master_seed", "version", "wall_time_s"}
        assert manifest["environment"] == {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
            "threads": threads,
        }

    def test_seed_env_var_overrides_config(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "sweep.json", SWEEP_CONFIG)
        out_env = str(tmp_path / "env")
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        assert main(["sweep", "--config", path, "--output-dir", out_env]) == 0
        manifest = json.loads((tmp_path / "env" / "manifest.json").read_text())
        assert manifest["master_seed"] == 12345
        # explicit flag beats the env var
        out_flag = str(tmp_path / "flag")
        assert main(["sweep", "--config", path, "--output-dir", out_flag, "--seed", "777"]) == 0
        manifest = json.loads((tmp_path / "flag" / "manifest.json").read_text())
        assert manifest["master_seed"] == 777

    def test_spurious_cli(self, tmp_path):
        cfg = {
            "command": "spurious",
            "params": {"m": 5, "n_mc": 300, "darmois_resolution": 256},
            "master_seed": 8,
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        text = (tmp_path / "out" / "spurious.csv").read_text()
        assert "spurious_darmois" in text and "truth_mpa" in text

    def test_reparam_cli(self, tmp_path):
        cfg = {
            "command": "reparam",
            "params": {
                "configs": [
                    {
                        "map": {"family": "linear", "d": 2, "m": 5},
                        "source": [{"kind": "gaussian", "params": {}}] * 2,
                        "perm": [1, 0],
                        "transforms": [{"kind": "affine", "a": 2.0, "b": 0.0}, {"kind": "tanh"}],
                    }
                ],
                "n_mc": 200,
            },
            "master_seed": 6,
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        lines = (tmp_path / "out" / "reparam.csv").read_text().splitlines()
        assert lines[0].startswith("config_index,")
        assert lines[1].endswith("true")

    def test_genericity_cli(self, tmp_path):
        cfg = {
            "command": "genericity",
            "params": {"d": 2, "m_list": [16], "delta_grid": 0.5, "eps": 0.01,
                        "delta_contrast": 0.1, "trials": 5, "n_mc": 200},
            "master_seed": 4,
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        assert (tmp_path / "out" / "genericity.csv").exists()


#: a small valid reparam config on every map family and law kind the
#: fuzzer below mutates
REPARAM_CONFIG = {
    "command": "reparam",
    "params": {
        "n_mc": 30,
        "configs": [
            {"map": {"family": "grid", "d": 2, "m": 12, "delta": 0.5, "eps": 0.02, "seed": 3},
             "source": [_UNIFORM, _UNIFORM],
             "perm": [1, 0],
             "transforms": [{"kind": "cube"}, {"kind": "affine", "a": 0.5, "b": 0.25}]},
            {"map": {"family": "conformal", "d": 2, "m": 5, "scale": 1.5, "with_inversion": True},
             "source": [{"kind": "gaussian", "params": {"mu": 0.0, "sigma": 1.0}},
                        {"kind": "laplace", "params": {"mu": 0.0, "b": 1.0}}],
             "perm": [0, 1],
             "transforms": [{"kind": "tanh"}, {"kind": "affine", "a": -1.5}]},
            {"map": {"family": "linear", "d": 2, "m": 4, "radial": "unit"},
             "source": [{"kind": "beta", "params": {"alpha": 2.0, "beta": 3.0, "points": 129}},
                        {"kind": "chi", "params": {"k": 3}}],
             "perm": [1, 0],
             "transforms": [{"kind": "affine", "b": 1.0}, {"kind": "cube"}]},
        ],
    },
    "master_seed": 11,
}


#: one valid config per subcommand, for the malformed-value test
MALFORMED_BASES = {
    "reparam": REPARAM_CONFIG,
    "sweep": SWEEP_CONFIG,
    "spurious": {"command": "spurious", "params": {"m": 5, "n_mc": 300, "darmois_resolution": 256}},
    "genericity": {
        "command": "genericity",
        "params": {"d": 2, "m_list": [16], "delta_grid": 0.5, "eps": 0.01,
                   "delta_contrast": 0.1, "trials": 5, "n_mc": 200},
    },
    "contrast map": {
        "command": "contrast",
        "params": {"map": {"family": "linear", "d": 2, "m": 4}, "n_samples": 50,
                   "source": [{"kind": "gaussian", "params": {}}] * 2},
    },
    "contrast matrix": {"command": "contrast", "params": {"matrix": [[1.0, 0.0], [0.0, 2.0]]}},
}


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([0.0, -1.5, 0.3, 2.5, 1e300, float("nan"), float("inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "a", "x"]), st.integers(0, 2), max_size=2),
)


#: (owner, name) of the draws and map builds that start a run's work
_WORK = (
    (distributions.FactorialDistribution, "sample"),
    (distributions.SphericalSampler, "sample_columns"),
    (distributions.SphericalSampler, "draw"),
    (mpa.DarmoisMap, "__init__"),
)


@contextlib.contextmanager
def marking_work(started: list):
    """Append to ``started`` whenever a draw or a map build returns: each
    of :data:`_WORK`, and ``random_conformal_map`` under every name an
    ima_lab module holds it by.  A call that raises has done no work."""
    targets = list(_WORK) + [
        (module, "random_conformal_map") for name, module in list(sys.modules.items())
        if name.startswith("ima_lab") and "random_conformal_map" in vars(module)
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name in targets]

    def marked(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            started.append(fn.__qualname__)
            return result
        return wrapper

    try:
        for owner, name, fn in saved:
            setattr(owner, name, marked(fn))
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def run_main(config, command="reparam"):
    """Exit code and standard error of ``main`` on a config file.  A run
    that exits 2 (a malformed config) must refuse it before any work: the
    first draw or map build fails the calling test."""
    err = io.StringIO()
    started = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stderr(err), marking_work(started):
            code = main([command, "--config", path, "--output-dir", os.path.join(tmp, "out")])
    assert not (code == 2 and started), (
        f"exit 2 after {started[0]} started work: {err.getvalue()} on {json.dumps(config)}")
    return code, err.getvalue()


def mutate(data, config, junk=_JUNK, top=()):
    """``config`` with one to three of its params, or of its ``top`` keys,
    replaced by ``junk``, deleted, or joined by a bogus key."""
    config = copy.deepcopy(config)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = [("params",) + p for p in _paths(config["params"])] + [(k,) for k in top if k in config]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace" or not isinstance(parent, dict):
            parent[path[-1]] = data.draw(junk)
        elif action == "delete":
            del parent[path[-1]]
        else:
            parent["bogus"] = data.draw(junk)
    return config


class TestReparamSchema:
    def test_the_base_config_runs(self):
        assert run_main(REPARAM_CONFIG) == (0, "")

    # a path starts with the key of its base config in MALFORMED_BASES
    @pytest.mark.parametrize("path, value", [
        (("reparam", "n_mc"), "abc"),
        (("reparam", "configs", 0, "transforms", 1, "a"), "x"),
        (("reparam", "configs", 0, "transforms"), ["cube", "cube"]),
        (("reparam", "configs", 0, "map", "d"), "2"),
        (("sweep", "trials"), "abc"),
        (("spurious", "m"), "x"),
        (("genericity", "m_list"), "ab"),
        (("contrast map", "n_samples"), "many"),
        (("contrast matrix", "matrix"), "abc"),
    ])
    def test_malformed_values_exit_2(self, path, value):
        config = copy.deepcopy(MALFORMED_BASES[path[0]])
        parent = config["params"]
        for key in path[1:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, err = run_main(config, config["command"])
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["type"] == "ValidationError"

    @pytest.mark.filterwarnings("ignore")  # small mutated maps warn about injectivity
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_configs_exit_0_2_or_3_without_a_traceback(self, data):
        code, err = run_main(mutate(data, REPARAM_CONFIG))
        assert code in (0, 2, 3)
        assert "Traceback" not in err


class TestSweepSchema:
    BASE = {
        "command": "sweep",
        "params": {"d": 2, "delta": 0.3, "m_list": [4, 9], "trials": 12,
                   "kappa": 1.0, "radial": "unit"},
    }

    def test_the_base_config_runs(self):
        assert run_main(self.BASE, "sweep") == (0, "")

    # small integers weigh more here: d, trials and m_list entries at or
    # below zero are the sweep's edge cases
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_configs_exit_0_2_or_3_without_a_traceback(self, data):
        code, err = run_main(mutate(data, self.BASE, st.one_of(st.integers(-2, 2), _JUNK)), "sweep")
        assert code in (0, 2, 3)
        assert "Traceback" not in err


#: small valid configs of the other subcommands; their fuzz also mutates
#: the top-level keys below
SUBCOMMAND_BASES = {
    "genericity": {
        "command": "genericity",
        "params": {"d": 2, "m_list": [6, 12], "delta_grid": 0.5, "eps": 0.05,
                   "delta_contrast": 0.3, "trials": 3, "n_mc": 40},
    },
    "spurious": {
        "command": "spurious",
        "params": {"m": 3, "rotation_deg": 30, "darmois_resolution": 128, "n_mc": 50, "floor": 1e-3,
                   "source": [{"kind": "laplace", "params": {"mu": 0.0, "b": 1.0}},
                              {"kind": "gaussian", "params": {"mu": 0.5}}]},
    },
    "contrast map": {
        "command": "contrast",
        "params": {"map": {"family": "grid", "d": 2, "m": 8, "delta": 0.5, "eps": 0.05, "seed": 2,
                           "radial": "unit"},
                   "source": [_UNIFORM, _UNIFORM], "n_samples": 40},
    },
    "contrast matrix": {"command": "contrast", "params": {"matrix": [[1.0, 0.5], [0.0, 2.0]]}},
}
TOP_LEVEL_KEYS = ("master_seed", "threads", "output_dir", "command")


class TestSubcommandSchemas:
    @pytest.mark.parametrize("name", SUBCOMMAND_BASES)
    def test_the_base_config_runs(self, name):
        config = SUBCOMMAND_BASES[name]
        assert run_main(config, config["command"]) == (0, "")

    @pytest.mark.filterwarnings("ignore")  # small mutated maps warn about injectivity
    @pytest.mark.parametrize("name", SUBCOMMAND_BASES)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_configs_exit_0_2_or_3_without_a_traceback(self, name, data):
        base = dict(SUBCOMMAND_BASES[name], master_seed=5, threads=2, output_dir="out")
        config = mutate(data, base, st.one_of(st.integers(-2, 2), _JUNK), top=TOP_LEVEL_KEYS)
        code, err = run_main(config, base["command"])
        assert code in (0, 2, 3)
        assert "Traceback" not in err


class TestSchemaRead:
    TABLE = {
        "n": (schema.integer, schema.REQUIRED),
        "x": (schema.real, schema.OPTIONAL),
        "k": (schema.integer, 7),
    }

    def test_absent_optional_keys_are_left_out_and_defaults_filled(self):
        assert schema.read({"n": 2.0}, self.TABLE, "t") == {"n": 2, "k": 7}
        assert schema.read({"n": 1, "x": 3, "k": 4}, self.TABLE, "t") == {"n": 1, "x": 3.0, "k": 4}

    @pytest.mark.parametrize("obj, message", [
        ([], "t must be an object"),
        ({}, "missing required keys ['n'] in t"),
        ({"n": 1, "y": 0}, "unknown keys ['y'] in t"),
        ({"n": 1, "x": "a"}, "t 'x' must be a number"),
    ])
    def test_malformed_objects_raise_validation_errors(self, obj, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            schema.read(obj, self.TABLE, "t")

    def test_choice_reads_the_table_its_key_names(self):
        tables = {"a": {"x": (schema.real, schema.OPTIONAL)}, "b": {}}
        assert schema.choice({"kind": "a", "x": 1}, "kind", tables, "t") == ("a", {"x": 1.0})
        for obj in ({"kind": "c"}, {"x": 1}, {"kind": "b", "x": 1}, {"kind": ["a"]}):
            with pytest.raises(ValidationError):
                schema.choice(obj, "kind", tables, "t")


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_cli_section() -> str:
    with open(README) as fh:
        text = fh.read()
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


README_CONFIGS = re.findall(r"```json\n(.*?)```", readme_cli_section(), re.S)

#: SHA-256 of the CSV of each fenced README config, in README order: the
#: README's output bytes, which a refactor must leave as they are
README_CSV_SHA256 = [
    "cf0fa9c807e3f5d3b18f54b425314ef8f83db7a06fc645e2a63e652f09c14e9c",
    "a1b0bd9018899f43e594d6334f96232166d898c8800ff860c6925e3ab2969605",
    "ae9bbbd56a44a512468022de4a69384268ffc9cfa3bfd6896d366f9f5cea3852",
    "28ee4c87de3c3b0e1dfeb47bc4fff036515247bb2fb4822027f5a6c728aadee5",
    "557e174968bcb03d2b6832a0852f1a3bc8d2b29b70fa1eaa042ebfaee1816c13",
]


class TestReadme:
    @pytest.mark.parametrize("block", README_CONFIGS, ids=lambda block: json.loads(block)["command"])
    def test_every_cli_example_runs(self, block, tmp_path):
        config = dict(json.loads(block), output_dir=str(tmp_path))
        validate_run_config(config)
        assert run(config) == 0
        data = (tmp_path / f"{config['command']}.csv").read_bytes()
        assert len(README_CSV_SHA256) == len(README_CONFIGS)
        assert hashlib.sha256(data).hexdigest() == README_CSV_SHA256[README_CONFIGS.index(block)]

    # README row label -> the table it documents
    TABLES = {
        "run config": cli._RUN_CONFIG,
        "`contrast` params": cli._CONTRAST,
        "`sweep` params": cli._SWEEP,
        "`genericity` params": cli._GENERICITY,
        "`spurious` params": cli._SPURIOUS,
        "`reparam` params": cli._REPARAM,
        "reparam config": cli._REPARAM_CONFIG,
        **{f"`{family}` map": table for family, table in cli._MAP_FAMILIES.items()},
    }

    def test_the_key_list_matches_the_schema_tables(self):
        rows = {}
        for line in readme_cli_section().splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("| ") and cells[0] in self.TABLES:
                rows[cells[0]] = [re.findall(r"`(\w+)` \(", cell) for cell in cells[1:]]
        assert rows.keys() == self.TABLES.keys()
        for label, (required, optional) in rows.items():
            table = self.TABLES[label]
            assert required == [k for k, (_, default) in table.items() if default is schema.REQUIRED]
            assert optional == [k for k, (_, default) in table.items() if default is not schema.REQUIRED]
