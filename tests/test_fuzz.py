"""Mutated shipped documents: every command exits 0 or 2, every JSON report parses.

Each example takes one built-in document's YAML text, replaces scalars with
hostile tokens or deletes lines, and runs the document kind's commands
in-process.  Exit 3 (an internal invariant), 1 or an escaped exception is
a failure, and so is a report that ``json.loads`` refuses.
"""

import json
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from qcheat import cli, protocol
from qcheat.protocol import BUILTIN_NAMES

TEXTS = {name: protocol._builtin_text(name) for name in BUILTIN_NAMES}
COMMANDS = {
    "bit-commitment": (["attack"], ["simulate"], ["fidelity"],
                       ["sweep", "--grid", "0:1:2"], ["purify"]),
    "coin-toss": (["cointoss"],),
}
TOKENS = ("nan", "1e308", "10**400", "[]", "null", "-1", "RAW")
# a run of characters that is neither YAML punctuation nor space: a key or a scalar
SCALAR = re.compile(r"[^\s:,\[\]{}#]+")


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
            start, end = draw(st.sampled_from([m.span() for m in SCALAR.finditer(text)]))
            text = text[:start] + draw(st.sampled_from(TOKENS)) + text[end:]
    return name, text


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(mutated_documents())
def test_mutated_documents_exit_0_or_2_with_json_reports(case):
    name, text = case
    kind = "coin-toss" if name.endswith("-ct") else "bit-commitment"
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "doc.yaml", Path(tmp) / "report"
        source.write_text(text, encoding="utf-8")
        for command in COMMANDS[kind]:
            out.unlink(missing_ok=True)
            code = cli.main([command[0], "--protocol", str(source), *command[1:],
                             "--out", str(out)])
            event(f"{command[0]} exit {code}")
            assert code in (0, 2), (command, text)
            if code == 0 and command[0] != "purify":
                json.loads(out.read_text(encoding="utf-8"))
