"""The benchmark's pinned CSV digests, checked by the unit tests too.

``bench/workloads.py`` records the SHA-256 of each workload's CSV at its
default seed; a change that moves the last bit of any workload's value
must fail here, not only under ``bench/run.py``.  The sweep at two threads
also pins the seed block that each of its ambient dimensions hashes once
and its pool threads share.  The module is loaded from its path and used
as it is.  Two more genericity shapes, at d = 1 and d = 3, pin the paths
that the workload's d = 2 does not take; their digests are recorded here.
"""

import importlib.util
import os

import pytest

from ima_lab import cli

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("pinned_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name, threads",
                         [("genericity", 1), ("genericity", 2), ("reparam", 1), ("spurious", 1),
                          ("sweep", 1), ("sweep", 2)])
def test_default_seed_csv_matches_the_recorded_digest(name, threads, tmp_path):
    config = workloads.run_config(name, workloads.DEFAULT_SEED, str(tmp_path), threads)
    assert cli.run(config) == 0
    data = (tmp_path / f"{config['command']}.csv").read_bytes()
    assert workloads.check_output(name, workloads.DEFAULT_SEED, data) == []


#: genericity at d = 1 and d = 3 on the workload's m_list and seed, with
#: enough window draws (eps 0.05 on a 0.3 grid) to split trials into uneven
#: chunks: params overrides -> SHA-256 of the CSV, recorded before the block
#: Gram einsum and the genericity chunk rule were rewritten
GENERICITY_SHAPES = {
    "d1": ({"d": 1, "delta_grid": 0.3, "eps": 0.05, "trials": 60, "n_mc": 1000},
           "ce2ddc7b6cea8003ccc17cfb6ff32b4bc954dbcdef7bc1b1b4f9ae45c56fbe2f"),
    "d3": ({"d": 3, "delta_grid": 0.3, "eps": 0.05, "trials": 60, "n_mc": 1000},
           "26cdc22e87cacdd8eafe27332efa49987febb1296dfa56bd57dc847a24c1ecb4"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", GENERICITY_SHAPES)
def test_other_genericity_shapes_match_their_recorded_digests(shape, threads, tmp_path):
    overrides, expected = GENERICITY_SHAPES[shape]
    config = workloads.run_config("genericity", workloads.DEFAULT_SEED, str(tmp_path), threads)
    config["params"].update(overrides)
    assert cli.run(config) == 0
    assert workloads.digest((tmp_path / "genericity.csv").read_bytes()) == expected
