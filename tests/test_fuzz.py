"""Mutated shipped documents: every command exits 0 or 2, every JSON report parses.

Each example takes one built-in document's YAML text, replaces scalars with
hostile tokens or deletes lines, and runs the document kind's commands
in-process.  Exit 3 (an internal invariant), 1 or an escaped exception is
a failure, and so is a report that ``json.loads`` refuses.  A report that
succeeds is run again with ``--output csv``, which must exit 0 and hold the
JSON report's cells.
"""

import csv
import json
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from qcheat import cli, document
from qcheat.document import BUILTIN_NAMES

TEXTS = {name: document._builtin_text(name) for name in BUILTIN_NAMES}
COMMANDS = {
    "bit-commitment": (["attack"], ["simulate"], ["fidelity"],
                       ["sweep", "--grid", "0:1:2"], ["purify"]),
    "coin-toss": (["cointoss"],),
}
# "1+1+...+1" is an angle sum longer than an angle may be
TOKENS = ("nan", "1e308", "10**400", "[]", "null", "-1", "RAW", "+".join(["1"] * 5000))
# a run of characters that is neither YAML punctuation nor space: a key or a scalar
SCALAR = re.compile(r"[^\s:,\[\]{}#]+")
# an angle's value, drawn on its own: few of SCALAR's matches are angles
ANGLE = re.compile(r"(?<=angle: )[^\s,}]+")


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(BUILTIN_NAMES))
    text = TEXTS[name]
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines(keepends=True)
        if draw(st.booleans()):
            del lines[draw(st.integers(0, len(lines) - 1))]
            text = "".join(lines)
        else:
            spans = [m.span() for m in ANGLE.finditer(text)]
            if not spans or draw(st.booleans()):
                spans = [m.span() for m in SCALAR.finditer(text)]
            start, end = draw(st.sampled_from(spans))
            text = text[:start] + draw(st.sampled_from(TOKENS)) + text[end:]
    return name, text


def _flatten(record: dict) -> dict:
    """The CSV rule: scalar fields, and each map of scalars' entries as field_key."""
    cells = {}
    for key, item in record.items():
        if key == "command" or isinstance(item, list):
            continue
        if not isinstance(item, dict):
            cells[key] = item
        elif not any(isinstance(entry, (dict, list)) for entry in item.values()):
            cells.update((f"{key}_{sub}", entry) for sub, entry in item.items())
    return cells


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g") if isinstance(value, float) else str(value)


def assert_csv_flattens(report: dict, text: str):
    """``text`` is ``report`` flattened: one row, or one row per sweep point."""
    header, *rows = csv.reader(text.splitlines())
    if report["command"] == "sweep":
        records = [_flatten({"param": report["param"], **pt}) for pt in report["points"]]
        # sweep names its columns; each point fills some of them
        assert all(set(cells) <= set(header) for cells in records), (header, records)
    else:
        records = [_flatten(report)]
        assert header == list(records[0])
    assert rows == [[_cell(cells.get(column)) for column in header] for cells in records]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_documents_exit_0_or_2_with_json_reports(case):
    name, text = case
    kind = "coin-toss" if name.endswith("-ct") else "bit-commitment"
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "doc.yaml", Path(tmp) / "report"
        source.write_text(text, encoding="utf-8")
        for command in COMMANDS[kind]:
            argv = [command[0], "--protocol", str(source), *command[1:], "--out", str(out)]
            out.unlink(missing_ok=True)
            code = cli.main(argv)
            event(f"{command[0]} exit {code}")
            assert code in (0, 2), (command, text)
            if code == 0 and command[0] != "purify":
                report = json.loads(out.read_text(encoding="utf-8"))
                assert cli.main(argv + ["--output", "csv"]) == 0, (command, text)
                assert_csv_flattens(report, out.read_text(encoding="utf-8"))
