import contextlib
import copy
import hashlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ima_lab import cli, schema
from ima_lab.cli import SEED_ENV_VAR, build_parser, main, run, validate_run_config
from ima_lab.errors import ValidationError


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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

    @pytest.mark.filterwarnings("ignore")  # m <= p*d warns about injectivity
    @pytest.mark.parametrize("eps", [0.0, 0.01])
    def test_grid_source_outside_the_cube_is_exit_2(self, eps):
        # eps > 0 takes the Gram route, which must refuse them as the SVD route does
        config = {
            "command": "contrast",
            "params": {
                "map": {"family": "grid", "d": 2, "m": 20, "delta": 0.5, "eps": eps},
                "source": [{"kind": "uniform", "params": {"a": 0.1, "b": 1.2}}] * 2,
            },
        }
        code, err = run_main(config, "contrast")
        assert code == 2
        assert "Traceback" not in err
        assert json.loads(err)["type"] == "OutOfDomainError"

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

    def test_absent_run_keys_take_their_defaults(self):
        config = validate_run_config({"command": "sweep", "params": {}})
        assert (config["master_seed"], config["threads"], config["output_dir"]) == (0, 1, ".")

    def test_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, "sweep.json", SWEEP_CONFIG)
        assert main(["genericity", "--config", path]) == 2

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
_UNIFORM = {"kind": "uniform", "params": {"a": 0.01, "b": 0.99}}
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


def run_main(config, command="reparam"):
    """Exit code and standard error of ``main`` on a config file."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--output-dir", os.path.join(tmp, "out")])
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


class TestReadme:
    @pytest.mark.parametrize("block", re.findall(r"```json\n(.*?)```", readme_cli_section(), re.S),
                             ids=lambda block: json.loads(block)["command"])
    def test_every_cli_example_runs(self, block, tmp_path):
        config = dict(json.loads(block), output_dir=str(tmp_path))
        validate_run_config(config)
        assert run(config) == 0
        assert (tmp_path / f"{config['command']}.csv").exists()

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
