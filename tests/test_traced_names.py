"""The names ``perfbench/spans.py`` traces must exist in the package.

The per-layer benchmark rebinds functions and methods by name, so a rename
or move in ``src/`` breaks only the traced run.  These checks catch it in
the ordinary test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


_SPANS = _spans()


@pytest.mark.parametrize("layer", sorted(_SPANS.FUNCTIONS))
def test_traced_functions_resolve_in_their_home_module(layer):
    modname, names = _SPANS.FUNCTIONS[layer]
    home = importlib.import_module(modname)
    for name in names:
        assert callable(getattr(home, name, None)), f"{modname}.{name}"


@pytest.mark.parametrize("method", _SPANS.METHODS, ids=lambda m: m[4])
def test_traced_methods_exist(method):
    _, modname, cls_name, attr, _ = method
    cls = getattr(importlib.import_module(modname), cls_name)
    assert callable(getattr(cls, attr, None)), f"{modname}.{cls_name}.{attr}"


def test_protocol_loads_yaml_through_a_module_attribute():
    # the tracer swaps qcheat.protocol.yaml for a proxy
    assert hasattr(importlib.import_module("qcheat.protocol"), "yaml")
