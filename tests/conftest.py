"""Shared fixtures: the benchmark's document generator, read-only, a child
process that runs the CLI, in a bounded address space or not, and a peak
counter in registers that starts from an empty work-buffer free list."""

import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qcheat import qcore

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

_CLI_IN_CHILD = """
import contextlib, io, json, resource, sys
if sys.argv[2] == "limit":
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


def _cli_child(limit: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")

    def run(argvs):
        done = subprocess.run([sys.executable, "-c", _CLI_IN_CHILD, json.dumps(argvs), limit],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return [tuple(result) for result in json.loads(done.stdout)]

    return run


@pytest.fixture(scope="session")
def cli_under_1_gib():
    """Run ``cli.main`` on each argv in one child limited to 1 GiB of address space.

    Returns [(exit code, stdout and stderr text)], one per argv.  The child
    runs one BLAS thread, and fails the test if it dies (a MemoryError
    escaping ``cli.main`` included) or takes over 120 s.
    """
    return _cli_child("limit")


@pytest.fixture(scope="session")
def cli_in_child():
    """``cli_under_1_gib`` without the limit."""
    return _cli_child("")


@pytest.fixture
def empty_pool():
    """The work-buffer free list, empty before the test and after it."""
    qcore._free_buffers.clear()
    yield qcore._free_buffers
    qcore._free_buffers.clear()


@pytest.fixture
def registers_above_start(empty_pool):
    """``count(call, num_qubits)`` -> (``call()``, its traced peak above the
    start in registers of ``num_qubits`` qubits): numpy reports its array
    buffers to tracemalloc.  Each count starts from an empty free list, so
    buffers kept for later calls count toward the peak."""

    def count(call, num_qubits):
        empty_pool.clear()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, (peak - start) / (16 * 2 ** num_qubits)

    return count
