"""Report bytes on the shipped documents match the recorded digests.

The argv list and the SHA-256 digests are the benchmark's own
(``perfbench/gen.py`` and ``perfbench/expected_cli.json``); this test only
reads them, so report bytes stay a tier-1 guarantee and not a
benchmark-only one.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from qcheat import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _shipped_ops():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.shipped_ops()


def test_shipped_reports_match_recorded_digests(tmp_path):
    expected = json.loads((PERFBENCH / "expected_cli.json").read_text(encoding="utf-8"))
    ops = _shipped_ops()
    assert sorted(op.key for op in ops) == sorted(expected)
    target = tmp_path / "report.out"
    differ = []
    for op in ops:
        assert cli.main(op.argv + ["--out", str(target)]) == 0, op.key
        if hashlib.sha256(target.read_bytes()).hexdigest() != expected[op.key]:
            differ.append(op.key)
    assert differ == []
