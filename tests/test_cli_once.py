"""Work the CLI does once: one argument parser per process, and one pass of
the open rounds per commit state in ``simulate``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcheat import cli
from qcheat import protocol as proto

ROOT = Path(__file__).resolve().parent.parent

SEQUENCE = [
    ["attack", "--protocol", "bb84-bc", "--channel-custody", "alice"],
    ["attack", "--protocol", "bb84-bc"],
    ["attack", "--protocol", "bb84-bc", "--output", "xml"],
    ["attack", "--help"],
    ["no-such-command", "--protocol", "bb84-bc"],
    ["simulate", "--protocol", "leaky-bc(0.5)", "--output", "csv"],
]


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_a_reused_parser_answers_like_a_fresh_one(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    reused = [_run(capsys, argv) for argv in SEQUENCE]
    assert len(builds) == 1
    fresh = []
    for argv in SEQUENCE:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(_run(capsys, argv))
    assert len(builds) == 1 + len(SEQUENCE)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 2, 0]
    # the custody flag of the first call does not stick to the second
    assert json.loads(reused[0][1])["channel_custody"] == "alice"
    assert json.loads(reused[1][1])["channel_custody"] == "bob"
    assert "invalid choice: 'xml'" in reused[2][2]
    assert reused[3][1].startswith("usage: qcheat attack")
    assert "invalid choice: 'no-such-command'" in reused[4][2]


def test_entry_in_a_fresh_process_writes_the_in_process_bytes(capsys, tmp_path):
    argv = ["cointoss", "--protocol", "guess-ct", "--output", "csv"]
    for _ in range(2):
        assert cli.main(argv + ["--out", str(tmp_path / "in-process.csv")]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "from qcheat.cli import entry; entry()", *argv,
         "--out", str(tmp_path / "child.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "in-process.csv").read_bytes()


@pytest.mark.parametrize("source", ["bell-bc", "bb84-bc", "leaky-bc(0.5)"])
def test_simulate_opens_each_commit_state_once(monkeypatch, capsys, source):
    commits = []
    run_commit = proto.run_commit
    monkeypatch.setattr(proto, "run_commit",
                        lambda p, b: commits.append(run_commit(p, b)) or commits[-1])
    opened = []
    apply_circuit = proto.qcore.apply_circuit

    def counted(state, *op_lists):
        if any(state is commit for commit in commits):
            opened.append(state)
        return apply_circuit(state, *op_lists)

    monkeypatch.setattr(proto.qcore, "apply_circuit", counted)
    assert cli.main(["simulate", "--protocol", source]) == 0
    capsys.readouterr()
    assert len(commits) == 2
    assert len(opened) == 2
    assert opened[0] is commits[0] and opened[1] is commits[1]
