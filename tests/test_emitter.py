"""libyaml's emitter and PyYAML's pure-Python one write the same documents.

``document_to_yaml`` emits through ``document._YAML_DUMPER``; each test
patches it to each dumper, as ``tests/test_loader.py`` patches the loader,
and compares the bytes.  Every document qcheat emits has fixed field names
as keys, so the awkward text goes into the values: the name, a result
label and a classical control.
"""

import pytest
import yaml

from qcheat import cli, document
from qcheat.document import BUILTIN_NAMES, document_to_yaml

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                   reason="PyYAML was built without libyaml")


def _emitted_by_both(monkeypatch, doc) -> str:
    texts = []
    for dumper in (yaml.SafeDumper, yaml.CSafeDumper):
        monkeypatch.setattr(document, "_YAML_DUMPER", dumper)
        texts.append(document_to_yaml(doc))
    assert texts[0] == texts[1]
    return texts[0]


def test_dumper_is_libyaml_when_pyyaml_has_it():
    expected = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper
    assert document._YAML_DUMPER is expected


def _purified(source):
    data, overrides, (parse, to_document, _) = cli._resolve(source)
    return data, to_document(parse(data, overrides))


@needs_libyaml
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_shipped_documents_and_their_purify_output_emit_alike(monkeypatch, name):
    data, purified = _purified(name)
    _emitted_by_both(monkeypatch, data)
    text = _emitted_by_both(monkeypatch, purified)
    assert document._load_yaml(text) == purified


@needs_libyaml
def test_generated_documents_emit_alike(monkeypatch, perfbench_gen, tmp_path):
    docs = {**perfbench_gen.ladder_documents(1, sizes=(8, 13)),
            **perfbench_gen.coin_documents(1, 16)}
    assert len(docs) == 6
    for name, doc in docs.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(perfbench_gen.to_yaml(doc), encoding="utf-8")
        assert _emitted_by_both(monkeypatch, doc) == path.read_text(encoding="utf-8")
        _emitted_by_both(monkeypatch, _purified(str(path))[1])


_TEXT = [
    "plain", "it's", 'say "hi"', "a: b", "a #b", "#x", "x#", " lead", "trail ", " both ",
    "café", "日本語", "😀", "Ünïcödé: x", "yes", "no", "on", "off", "null", "~", "true",
    "False", "0x1F", "0o17", "017", "1e3", "1_000", "+1", ".5", "-.inf", ".nan", "nan",
    "inf", "-inf", "2001-12-14", "12:30:45", "", "-", "- x", "? x", "&a", "*a", "!tag",
    "%x", "@x", "`x", "|", ">", "a\nb", "a\tb", "\x07bell", "x\x85y", "﻿bom", "'",
    '"', "\\", "a\\nb", "<<", "=", "[a]", "{a: 1}", "a,b", "a" * 200, "word " * 50,
    " nbsp", "x\r\ny", "é\n", "trailing\n", "\n", "  ", "a  b", "x y",
]
_NUMBERS = [float("nan"), float("inf"), -float("inf"), 0.1, 1e-300, 1e300, -0.0,
            0.30000000000000004, 1.7976931348623157e308, 5e-324, 2.0 ** 70, 2 ** 70, -1, 0]
AWKWARD = _TEXT + _NUMBERS + [True, False, None, [], {}, [[1, 2], []]]


@needs_libyaml
def test_awkward_values_emit_alike(monkeypatch):
    assert len(AWKWARD) >= 90
    _, base = _purified("bb84-bc")
    for value in AWKWARD:
        op = {"measure": True, "targets": [0], "result_id": value}
        doc = {**base, "name": value,
               "open_rounds": [{"actor": "alice", "ops": [op, {
                   "gate": "X", "targets": [1], "control_classical": value}]}]}
        _emitted_by_both(monkeypatch, doc)
