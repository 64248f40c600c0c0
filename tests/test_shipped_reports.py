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

import numpy as np
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


def test_shipped_reports_take_no_tensordot_or_moveaxis(perfbench_gen, tmp_path, monkeypatch):
    # every contraction is one np.dot in qcore._contract; the benchmark's
    # spans cannot see that kernel, so a return to the generic path shows here
    def refuse(*args, **kwargs):
        raise AssertionError("np.tensordot or np.moveaxis was called")

    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(np, "moveaxis", refuse)
    ops = [op for op in perfbench_gen.shipped_ops()
           if op.kind in ("attack", "simulate", "purify", "cointoss")]
    assert {op.kind for op in ops} == {"attack", "simulate", "purify", "cointoss"}
    expected = _expected()
    assert report_digests(ops, tmp_path / "report.out") == {op.key: expected[op.key] for op in ops}


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


# ``cointoss`` report digests of ``coin_documents(1, rounds)``, the coins the
# benchmark's induction workload runs; recorded at one and two BLAS threads.
COIN_DIGESTS = {
    16: {"fixed": ("a20d85bc71a7032925e4b6d18bef6d92f86b592de811409db7bd3a88f6390ac3",
                   "1e7174efd8385cea3de92d8d03eaab5c823272920fda11347247ccae0f3201d1"),
         "hadamard": ("8958c828fa3d90f4a57aa5d65f7b7a637c85284c51082c089624d0b3c93ec5e4",
                      "b50744d281a3fbfdb449b0f21de9b955145d4d39d3720b130891d2b8c4bf7fce")},
    128: {"fixed": ("b21297e54b73cc212a377ce6593ced88c373b2f014bdd653a028b2fa0e84dd35",
                    "df6fdb58d1e35195aac77939eb2af42e3378203c03c3f414a4af3989770d34fc"),
          "hadamard": ("c0ab25486916d6fd76acc8d6d5d73fd48ffd7f29f4859811dc9a28c71259132d",
                       "48c6c475841639d389384f100ba2e19704e77ec1bc18099290221ecdfb4d0aa0")},
}


def test_generated_coin_reports_match_recorded_digests(perfbench_gen, tmp_path):
    out = tmp_path / "report.out"
    for rounds, variants in COIN_DIGESTS.items():
        for name, doc in perfbench_gen.coin_documents(1, rounds).items():
            source = tmp_path / f"{name}.yaml"
            source.write_text(perfbench_gen.to_yaml(doc), encoding="utf-8")
            digests = []
            for fmt in ("json", "csv"):
                argv = ["cointoss", "--protocol", str(source), "--output", fmt,
                        "--out", str(out)]
                assert cli.main(argv) == 0, (name, fmt)
                digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
            assert tuple(digests) == variants[name.rsplit("-", 1)[1]], name
