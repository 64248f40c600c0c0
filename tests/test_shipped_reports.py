"""Report bytes on the shipped documents match the recorded digests.

The argv list and the SHA-256 digests are the benchmark's own
(``perfbench/gen.py`` and ``perfbench/expected_cli.json``); these tests only
read them, so report bytes stay a tier-1 guarantee and not a
benchmark-only one.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

from qcheat import cli, protocol

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def report_digests(ops, target) -> dict:
    """{op key: SHA-256 of its report}, each op run through ``cli.main``."""
    target = Path(target)
    digests = {}
    for op in ops:
        assert cli.main(op.argv + ["--out", str(target)]) == 0, op.key
        digests[op.key] = hashlib.sha256(target.read_bytes()).hexdigest()
    return digests


def _expected() -> dict:
    return json.loads((PERFBENCH / "expected_cli.json").read_text(encoding="utf-8"))


def test_shipped_reports_match_recorded_digests(perfbench_gen, tmp_path):
    expected = _expected()
    digests = report_digests(perfbench_gen.shipped_ops(), tmp_path / "report.out")
    assert sorted(digests) == sorted(expected)
    assert [key for key in expected if digests[key] != expected[key]] == []


def test_shipped_reports_match_recorded_digests_with_the_python_loader(
        perfbench_gen, tmp_path, monkeypatch):
    monkeypatch.setattr(protocol, "_YAML_LOADER", yaml.SafeLoader)
    digests = report_digests(perfbench_gen.shipped_ops(), tmp_path / "report.out")
    assert digests == _expected()


_PRINT_DIGESTS = (
    "import json, sys, gen, test_shipped_reports as t; "
    "print(json.dumps(t.report_digests(gen.shipped_ops(), sys.argv[1])))")


def test_shipped_reports_do_not_depend_on_blas_threads(tmp_path):
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "perfbench", "tests"))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _PRINT_DIGESTS, str(tmp_path / f"report-{threads}.out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert runs["1"] == runs["2"] == _expected()
