"""Document loading: libyaml and the pure-Python loader agree, bad bytes name the file."""

import re

import pytest
import yaml

from qcheat import cli, document
from qcheat.document import BUILTIN_NAMES, ProtocolError, load_protocol

LOADERS = [
    pytest.param("CSafeLoader", marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML built without libyaml")),
    "SafeLoader",
]


def _texts(gen):
    """{name: YAML text} of every built-in and every generated workload document."""
    texts = {name: document._builtin_text(name) for name in BUILTIN_NAMES}
    docs = {**gen.ladder_documents(1), **gen.coin_documents(1, 8),
            **gen.coin_documents(1, 128)}
    texts.update((name, gen.to_yaml(doc)) for name, doc in docs.items())
    return texts


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_c_and_python_loaders_build_equal_documents(perfbench_gen):
    texts = _texts(perfbench_gen)
    assert len(texts) == len(BUILTIN_NAMES) + 14 + 4
    for name, text in texts.items():
        c_doc = yaml.load(text, Loader=yaml.CSafeLoader)
        assert c_doc == yaml.load(text, Loader=yaml.SafeLoader), name
        assert isinstance(c_doc, dict), name


def test_loader_is_libyaml_when_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert document._YAML_LOADER is expected


MALFORMED = {
    "unclosed flow mapping": ("name: x\nqubits: {alice: 1, bob: 1\ninitial: {}\n", 3, 8),
    "tab indentation": ("name: x\nqubits:\n\talice: 1\n", 3, 1),
    "undefined alias": ("name: x\nqubits: *missing\n", 2, 9),
    "two documents": ("name: a\n---\nname: b\n", 2, 1),
    "python tag": ("name: x\nqubits: !!python/object:os.system ls\n", 2, 9),
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_yaml_is_located_alike_by_both_loaders(monkeypatch, loader, case):
    text, line, column = MALFORMED[case]
    monkeypatch.setattr(document, "_YAML_LOADER", getattr(yaml, loader))
    with pytest.raises(ProtocolError) as info:
        document._load_yaml(text)
    where = re.match(r"YAML syntax error at line (\d+), column (\d+): ", str(info.value))
    assert where is not None, str(info.value)
    assert (int(where[1]), int(where[2])) == (line, column)


@pytest.mark.parametrize("head, offset", [(b"", 0), (b"name: x\n# caf", 13)],
                         ids=["first-byte", "mid-file"])
def test_non_utf8_document_names_path_and_offset(tmp_path, capsys, head, offset):
    path = tmp_path / "latin.yaml"
    path.write_bytes(head + b"\xff\xfe qubits: 1\n")
    with pytest.raises(ProtocolError) as info:
        load_protocol(str(path))
    message = str(info.value)
    assert str(path) in message
    assert f"byte 0xff at offset {offset}" in message

    assert cli.main(["attack", "--protocol", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert f"offset {offset}" in err
