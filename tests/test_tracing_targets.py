import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("name,module,path", TARGETS, ids=[t[0] for t in TARGETS])
def test_benchmark_trace_target_resolves(name, module, path):
    # the benchmark's span tracer wraps these names; a rename or deletion
    # here breaks its --trace pass, so catch it with the library tests
    owner = importlib.import_module(f"cohiggs.{module}")
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        # the tracer reads class attributes from the class __dict__
        assert attr in owner.__dict__, name
    else:
        assert callable(getattr(owner, attr, None)), name
