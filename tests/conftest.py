"""Shared fixtures: the benchmark's document generator, read-only, and a
child process that runs the CLI in a bounded address space."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_CLI_UNDER_1_GIB = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qcheat import cli
runs = []
for argv in json.loads(sys.argv[1]):
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        runs.append((cli.main(argv), text.getvalue()))
print(json.dumps(runs))
"""


@pytest.fixture(scope="session")
def perfbench_gen():
    """``perfbench/gen.py`` loaded by path (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture(scope="session")
def cli_under_1_gib():
    """Run ``cli.main`` on each argv in one child limited to 1 GiB of address space.

    Returns [(exit code, stdout and stderr text)], one per argv.  The child
    fails the test if it dies (a MemoryError escaping ``cli.main`` included)
    or takes over 120 s.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")

    def run(argvs):
        done = subprocess.run([sys.executable, "-c", _CLI_UNDER_1_GIB, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return [tuple(result) for result in json.loads(done.stdout)]

    return run
