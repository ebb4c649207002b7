"""The benchmark tracer wraps package functions by name; each name it lists
must still exist, or a traced benchmark run fails where tier-1 cannot see it.
Its counters hang off those names too, so each must name a wrapped function,
or it silently stops counting."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("staytime_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


TRACING_MODULE = load_tracing()
TARGET_ATTRS = {attr for _, attr, _ in TRACING_MODULE.TARGETS}


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TRACING_MODULE.TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(f"staytime.{module_name}")
    if "." in attr:
        # the tracer swaps a method on the class that defines it
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(module, cls_name)).get(method))
    else:
        assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("attr", sorted(TRACING_MODULE._HOOKS))
def test_hook_names_a_target(attr):
    assert attr in TARGET_ATTRS
