"""Every call site the benchmark traces still exists in the library.

``bench/tracing.py`` skips a target the library no longer defines, so a
renamed or deleted function would make its metrics read 0 with no error.
Each ``TARGETS`` entry must resolve: a module function is an attribute of
its module, and a class method is in its class's own ``__dict__``, which
is where the tracer patches it.  The module is loaded from its path and
used as it is.
"""

import importlib
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pinned_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, qualname", [(m, q) for m, q, _hook in tracing.TARGETS])
def test_every_trace_target_resolves(module_name, qualname):
    module = importlib.import_module(f"ima_lab.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(module, cls_name, None)
        assert isinstance(owner, type), f"ima_lab.{module_name} has no class {cls_name}"
        assert callable(vars(owner).get(attr)), f"{cls_name} does not define {attr} itself"
    else:
        assert callable(getattr(module, qualname, None)), f"ima_lab.{module_name} has no {qualname}"
