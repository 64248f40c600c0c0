"""Document values: ``_load_yaml`` builds what PyYAML's SafeConstructor builds.

``protocol._built`` makes strings, bools, plain ints, point floats, lists
and dicts from the parser's events and leaves every other document whole
to PyYAML.  These tests hold it to ``yaml.load(text, Loader=yaml.SafeLoader)``
type for type (``True == 1 == 1.0`` in Python, so ``==`` alone would pass
a wrong ``_built``), error location for error location, under both loaders.
"""

import re
from unittest import mock

import pytest
import yaml
from hypothesis import event, given, settings
from hypothesis import strategies as st
from yaml.constructor import BaseConstructor, SafeConstructor

from qcheat import cli, protocol
from qcheat.protocol import BUILTIN_NAMES, ProtocolError

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

# every implicit YAML 1.1 scalar form PyYAML resolves, and near misses
INTS = ("0", "-0", "+0", "7", "+7", "-17", "00", "012", "09", "0x1F", "-0x1f", "0b101",
        "1_000", "190:20:30", "0o17", "123456789012345678901234567890")
FLOATS = ("1.5", "-2.25", "+0.5", "0.", "1.", "-0.0", "1.5e+3", "1.5E-3", "1.5e3",
          "6.02e+23", "1e+3", ".5", "-.5", "1_0.5", "190:20:30.15", "1.0e+400",
          ".inf", "-.Inf", "+.INF", ".nan", ".NaN")
BOOLS = ("true", "True", "TRUE", "false", "yes", "No", "ON", "off", "y", "n")
NULLS = ("~", "null", "Null", "NULL")
TIMESTAMPS = ("2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10",
              "2001-12-15T02:59:43.1Z", "2002-12-14T10:00:00+01", "2001-13-01")
STRINGS = ("abc", "x y", '"1"', "'true'", '"2001-12-14"', "'~'", '"\\u00e9"', "aGVsbG8=",
           "=", "<<", "foo")
SCALARS = INTS + FLOATS + BOOLS + NULLS + TIMESTAMPS + STRINGS
TAGS = ("!!int", "!!float", "!!str", "!!bool", "!!null", "!!binary", "!!timestamp",
        "!!seq", "!!map", "!!set", "!!omap", "!!pairs", "!!merge", "!!value", "!local")


def _node(draw, depth: int, anchors: list, shape=None) -> str:
    """One flow node's text: maybe an alias, else an optionally anchored and
    tagged scalar, sequence or mapping; an alias may name an open ancestor."""
    if anchors and draw(st.integers(0, 5)) == 0:
        return f"*{draw(st.sampled_from(anchors))} "
    prefix = ""
    if draw(st.integers(0, 3)) == 0:
        anchors.append(f"a{len(anchors)}")
        prefix += f"&{anchors[-1]} "
    if draw(st.integers(0, 7)) == 0:
        prefix += draw(st.sampled_from(TAGS)) + " "
    if shape is None:
        shape = draw(st.sampled_from(("scalar", "seq", "map")) if depth else st.just("scalar"))
    if shape == "scalar":
        return prefix + draw(st.sampled_from(SCALARS))
    if shape == "seq":
        items = [_node(draw, depth - 1, anchors) for _ in range(draw(st.integers(0, 3)))]
        return prefix + "[" + ", ".join(items) + "]"
    return prefix + "{" + ", ".join(_entries(draw, depth - 1, anchors)) + "}"


def _entries(draw, depth: int, anchors: list, block: bool = False) -> list:
    """A mapping's entries: mostly scalar keys; some collection, alias or
    null-valued keys, and merge keys on mappings, aliases or lists of them.

    A block mapping has at least one entry.  libyaml refuses a flow entry
    ``key :`` that PyYAML takes, so a flow key without a value is bare."""
    entries = []
    for _ in range(draw(st.integers(int(block), 3))):
        roll = draw(st.integers(0, 9))
        if roll == 0:
            merged = [_node(draw, depth, anchors, "map") for _ in range(draw(st.integers(1, 2)))]
            value = merged[0] if draw(st.booleans()) else "[" + ", ".join(merged) + "]"
            entries.append(f"<< : {value}")
        elif roll == 1:
            # a key with a null value, as in a !!set
            key = draw(st.sampled_from(SCALARS))
            entries.append(f"{key} :" if block else key)
        else:
            key = _node(draw, depth, anchors) if roll == 2 else draw(st.sampled_from(SCALARS))
            entries.append(f"{key} : {_node(draw, depth, anchors)}")
    return entries


@st.composite
def documents(draw):
    """A block mapping of flow nodes: at least one entry, one to a line."""
    return "".join(entry + "\n" for entry in _entries(draw, 3, [], block=True))


def _where(mark) -> str:
    return f"line {mark.line + 1}, column {mark.column + 1}" if mark else "document"


def pyyaml_load(text: str):
    """(value, None) or (None, (error kind, location)) from PyYAML's own load,
    as ``yaml.load(text, Loader=yaml.SafeLoader)`` runs it.  An error with no
    mark is located at the innermost node SafeConstructor was building."""
    loader = yaml.SafeLoader(text)
    try:
        return loader.get_single_data(), None
    except yaml.YAMLError as exc:
        return None, ("syntax", _where(getattr(exc, "problem_mark", None)))
    except (ValueError, KeyError, AttributeError):
        return None, ("value", _where(list(loader.recursive_objects)[-1].start_mark))
    finally:
        loader.dispose()


def same(a, b, pairs: dict) -> bool:
    """``a`` and ``b`` equal type for type, with the same sharing and cycles."""
    if type(a) is not type(b):
        return False
    if not isinstance(a, (list, tuple, dict, set)):
        return repr(a) == repr(b)
    # each side's containers pair off one to one
    if (0, id(a)) in pairs or (1, id(b)) in pairs:
        return pairs.get((0, id(a))) is b and pairs.get((1, id(b))) is a
    pairs[0, id(a)], pairs[1, id(b)] = b, a
    if len(a) != len(b):
        return False
    if isinstance(a, set):
        return sorted(map(repr, a)) == sorted(map(repr, b)) and {type(x) for x in a} == {
            type(x) for x in b}
    if isinstance(a, dict):
        return all(same(ka, kb, pairs) and same(va, vb, pairs)
                   for (ka, va), (kb, vb) in zip(a.items(), b.items()))
    return all(same(x, y, pairs) for x, y in zip(a, b))


def test_same_tells_types_and_sharing_apart():
    assert not same({"a": True}, {"a": 1}, {})
    assert not same([1.0], [1], {})
    assert not same([-0.0], [0.0], {})
    shared = [1]
    assert not same([shared, shared], [[1], [1]], {})
    assert not same([[1], [1]], [shared, shared], {})
    loop = []
    loop.append(loop)
    assert same(loop, [loop], {}) is False and same(loop, loop, {})


@settings(max_examples=800, derandomize=True, deadline=None, database=None)
@given(documents())
def test_load_matches_pyyaml_type_for_type(text):
    value, error = pyyaml_load(text)
    if error is None and not isinstance(value, dict):
        error = ("mapping", None)
    event(f"pyyaml: {error[0] + ' error' if error else 'built'}")
    for loader in LOADERS:
        with mock.patch.object(protocol, "_YAML_LOADER", loader):
            if error is None:
                assert same(protocol._load_yaml(text), value, {}), (loader, text)
                continue
            with pytest.raises(ProtocolError) as info:
                protocol._load_yaml(text)
        message = str(info.value)
        if error[0] == "mapping":
            assert message == "protocol document must be a mapping", (loader, text)
            continue
        found = re.match(r"YAML (syntax|value) error at (line \d+, column \d+|document): ",
                         message)
        assert found is not None, (loader, text, message)
        assert (found[1], found[2]) == error, (loader, text, message)


# Probes whose messages depend on the value types: the CLI's exit 2 and stderr
BELL = protocol._builtin_text("bell-bc")
GUESS = protocol._builtin_text("guess-ct")
PROBES = {
    "yes-key": ("attack", BELL + "yes: 1\n", "error: unknown field True\n"),
    "null-key": ("attack", BELL + "~: 1\n", "error: unknown field None\n"),
    "null-label": ("cointoss", GUESS.replace("    invalid:", "    ~:", 1),
                   "error: outcomes.alice: outcome label must be 0, 1 or invalid, got 'None'\n"),
    "binary-name": ("attack", BELL.replace("name: bell-bc", "name: !!binary aGVsbG8="),
                    "error: name: expected a string\n"),
    "date-name": ("attack", BELL.replace("name: bell-bc", "name: 2001-12-14"),
                  "error: name: expected a string\n"),
    "unhashable-key": ("attack", BELL.replace("  alice: 1", "  [alice]: 1"),
                       "error: YAML syntax error at line 7, column 3: while constructing a "
                       "mapping\nfound unhashable key\n  in \"<unicode string>\", line 7, "
                       "column 3\n"),
    "recursive-rounds": ("attack", re.sub(r"commit_rounds:.*?(?=open_rounds:)",
                                          "commit_rounds: &r [*r]\n", BELL, flags=re.S),
                         "error: commit_rounds[0]: expected a mapping\n"),
    "bad-bool": ("attack", BELL.replace("name: bell-bc", "name: !!bool maybe"),
                 "error: YAML value error at line 4, column 7: cannot read 'maybe' as "
                 "!!bool\n"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_type_dependent_probes_keep_their_messages(tmp_path, capsys, probe):
    if probe == "unhashable-key" and not yaml.__with_libyaml__:
        pytest.skip("the pinned message is libyaml's, which quotes no source line")
    command, text, err = PROBES[probe]
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    assert cli.main([command, "--protocol", str(path)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
def test_shipped_and_workload_documents_never_reach_safeconstructor(
        monkeypatch, perfbench_gen, loader):
    calls = []
    real = SafeConstructor.construct_object
    monkeypatch.setattr(SafeConstructor, "construct_object",
                        lambda self, node, deep=False: calls.append(node) or real(
                            self, node, deep))
    monkeypatch.setattr(protocol, "_YAML_LOADER", loader)
    # the counter sees a document PyYAML builds whole: a null is not built
    # by _built, so its whole document is PyYAML's, the root first
    protocol._load_yaml("a: ~\n")
    assert [node.tag.replace("tag:yaml.org,2002:", "!!") for node in calls] == [
        "!!map", "!!str", "!!null"]
    calls.clear()
    protocol._load_yaml("a: !!set {x}\n")
    assert len(calls) > 1
    calls.clear()
    for name in BUILTIN_NAMES:
        protocol.resolve_document(name)
    docs = {**perfbench_gen.coin_documents(1, 128), **perfbench_gen.ladder_documents(1)}
    for doc in docs.values():
        protocol._load_yaml(perfbench_gen.to_yaml(doc))
    assert calls == []


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
def test_nesting_is_capped_with_one_message_under_both_loaders(monkeypatch, loader):
    monkeypatch.setattr(protocol, "_YAML_LOADER", loader)
    # the root is level 1 and "a: " puts the first "[" at column 4
    levels = protocol._MAX_DEPTH
    assert protocol._load_yaml("a: " + "[" * (levels - 1) + "]" * (levels - 1))
    for deeper in (levels, 2 * levels):
        with pytest.raises(ProtocolError) as info:
            protocol._load_yaml("a: " + "[" * deeper + "]" * deeper)
        column = levels + 2
        assert str(info.value) == (
            f"YAML syntax error at line 1, column {column}: found a node nested deeper "
            f"than {levels} levels\n  in \"<unicode string>\", line 1, column {column}")
    # the count goes back down as composing climbs out: many shallow lists load
    wide = "\n".join(f"k{i}: " + "[" * 40 + "]" * 40 for i in range(levels))
    assert len(protocol._load_yaml(wide)) == levels


# Spellings whose type PyYAML's resolver decides, each as a mapping's value,
# and whole documents of anchors and aliases: a regression in any of them
# fails here without waiting for Hypothesis to draw it
EDGE_VALUES = ("yes", "On", "OFF", "y", "n", "~", "", ".inf", "0o17", "017", "1_000", "+1",
               "-0", "1e5", "1.", ".5", "1" * 5000, "! 12")
EDGE_DOCUMENTS = {
    "anchored-scalar-key": "&k a: 1\nb: *k\n",
    "alias-key": "x: &k a\n*k : 2\n",
    "recursive-list": "a: &r [1, *r]\n",
    "recursive-map": "a: &m {b: *m}\n",
    "duplicate-anchor": "a: &x 1\nb: &x 2\n",
}


def _edge_text(case: str) -> str:
    return EDGE_DOCUMENTS.get(case, f"a: {case}\n")


def _edge_id(case: str) -> str:
    return "empty" if not case else case if len(case) < 20 else f"{len(case)}-digit-int"


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("case", EDGE_VALUES + tuple(EDGE_DOCUMENTS), ids=_edge_id)
def test_edge_forms_load_as_pyyaml_loads_them(monkeypatch, loader, case):
    text = _edge_text(case)
    value, error = pyyaml_load(text)
    monkeypatch.setattr(protocol, "_YAML_LOADER", loader)
    if error is None:
        assert same(protocol._load_yaml(text), value, {}), text
        return
    with pytest.raises(ProtocolError) as info:
        protocol._load_yaml(text)
    found = re.match(r"YAML (syntax|value) error at (line \d+, column \d+): ", str(info.value))
    assert found is not None and (found[1], found[2]) == error, str(info.value)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda cls: cls.__name__)
def test_event_builder_falls_back_only_where_it_must(monkeypatch, perfbench_gen, loader):
    """PyYAML's whole load runs once for each document the builder leaves,
    and never for a shipped or workload document."""
    loads = []
    real = BaseConstructor.get_single_data
    monkeypatch.setattr(BaseConstructor, "get_single_data",
                        lambda self: loads.append(self) or real(self))
    monkeypatch.setattr(protocol, "_YAML_LOADER", loader)
    for name in BUILTIN_NAMES:
        protocol.resolve_document(name)
    docs = {**perfbench_gen.coin_documents(1, 128), **perfbench_gen.ladder_documents(1)}
    for doc in docs.values():
        protocol._load_yaml(perfbench_gen.to_yaml(doc))
    assert loads == []
    deep = protocol._MAX_DEPTH + 1
    left = {"a: ~\n": True, "a: !!set {x}\n": True, "a: 1\n---\nb: 2\n": False,
            "a: 1\na: 2\n": True, "a: " + "[" * deep + "]" * deep: False}
    for text, loads_whole in left.items():
        loads.clear()
        if loads_whole:
            protocol._load_yaml(text)
        else:
            with pytest.raises(ProtocolError):
                protocol._load_yaml(text)
        assert len(loads) == 1, text
