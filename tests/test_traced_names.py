"""The names ``perfbench/spans.py`` traces must exist in the package, and
a CLI op's calls must reach them.

The per-layer benchmark rebinds functions and methods by name, so a rename
or move in ``src/`` breaks only the traced run.  These checks catch it in
the ordinary test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qcheat import cli

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


@pytest.mark.parametrize("argv, expected", [
    (["cointoss", "--protocol", "ideal-ct"],
     {"protocol.resolve_document": 1, "cointoss.parse_coin_protocol": 1,
      "cointoss.induction_report": 1, "protocol.Projector.expectation": 6,
      "qcore.mutual_information": 1}),
    (["attack", "--protocol", "bb84-bc"],
     {"protocol.resolve_document": 1, "protocol.parse_protocol": 1,
      "protocol.purify_protocol": 1, "protocol.run_commit": 2, "protocol.run_open": 3,
      "protocol.Projector.expectation": 3}),
    (["purify", "--protocol", "guess-ct"],
     {"protocol.resolve_document": 1, "cointoss.parse_coin_protocol": 1}),
    (["sweep", "--protocol", "leaky-bc(0.5)", "--grid", "0:1:3"],
     {"protocol.resolve_document": 1, "protocol.parse_protocol": 4,
      "protocol.purify_protocol": 4, "protocol.run_commit": 6, "protocol.run_open": 9,
      "protocol.Projector.expectation": 9, "attack.epr_attack": 3,
      "attack.attack_sweep": 1}),
    (["simulate", "--protocol", "bb84-bc"],
     {"protocol.resolve_document": 1, "protocol.parse_protocol": 1,
      "protocol.purify_protocol": 1, "protocol.run_commit": 2,
      "protocol.Projector.expectation": 4}),
], ids=["cointoss", "attack", "purify", "sweep", "simulate"])
def test_traced_functions_see_the_calls_of_a_cli_op(tmp_path, argv, expected):
    # every call must reach a traced name through a module attribute: a
    # function kept in a table would bypass the wrapper and count 0
    tracer = _SPANS.Tracer()
    tracer.install()
    try:
        span = tracer.open_op(0, 0.0)
        code = cli.main(argv + ["--out", str(tmp_path / "report")])
        tracer.close_op(span, 0.0)
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.take_pass(0)["counts"]
    assert {name: counts[f"{name}.calls"] for name in expected} == expected
