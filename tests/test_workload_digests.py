"""The benchmark's pinned CSV digests, checked by the unit tests too.

``bench/workloads.py`` records the SHA-256 of each workload's CSV at its
default seed; a change that moves the last bit of any workload's value
must fail here, not only under ``bench/run.py``.  The sweep at two threads
also pins the seed block that each of its ambient dimensions hashes once
and its pool threads share.  The module is loaded from its path and used
as it is.
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
