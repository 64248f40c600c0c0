"""Sampled measurements: pinned bytes and the stacked kernel.

The digests were recorded with the per-sample loop that drew, whitened and
scored one measurement at a time, at one and two BLAS threads; the stacked
kernel must reproduce every one of them bit for bit.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcheat import cli, document
from qcheat import fidelity as fid
from qcheat import protocol as proto
from qcheat.fidelity import (
    check_povms,
    povm_chunk,
    povm_overlap,
    povm_overlaps,
    random_povm,
    random_povms,
    sample_overlaps,
)
from qcheat.qcore import InvariantViolation

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of `fidelity --protocol DOC --povm-samples N --seed 3` JSON
SHIPPED_SAMPLE_DIGESTS = {
    "bell-bc": {
        1: "60e3ca4fa9afecba3bf82132f746d10310254edcbbe9daed73c2e120e2119a0b",
        25: "c1d43aa345a1a3ec09af48c9b760f74ade86a0d0a6ef49ad441bfca622985e60",
        1000: "4c09e47278c48d66c7c120591e33daaa0ac86d103207745267890327dfc3179e"},
    "bb84-bc": {
        1: "248672abfb625f3205ad48a12a47768357a85874660a05fded59d3978c3a7bb3",
        25: "51d36c1f817609694b9249907f7f2a76268137da33badb1c417536a3f47823f1",
        1000: "7482f1e8b5afba8f4f8355b3ebbf822c08610b9d64a253ce23657dfc62bdcf6d"},
    "leaky-bc(0.5)": {
        1: "dcc4f2249f91e2d15f4e310badf490979563fca680e787cfc77a25d2ee0b5744",
        25: "2e3895fd7a8832ea888f29b3df6fb7269c639d2f6a09dbab44bb2d024d0e9b4e",
        1000: "7abb15747fdaf77d5b054e90cb523302173a8e77096f1b817bdba36e3a24a075"},
}
# the same report with --povm-samples 50 --seed 3 on ladder_documents(1, sizes=(8,))
LADDER_SAMPLE_DIGESTS = {
    "ladder-n8-alice-big": "e8fd0986d61a82f9356e72a486368f052c1567ca631da1a366cae52581203f71",
    "ladder-n8-bob-big": "63127e63384d31041172efa5fcdaf9de0f107504b2f639e973612183128416e2",
}
# SHA-256 over the element bytes of 20 random_povm(d, d + 1, default_rng(d))
# draws for d = 2, 8, 16, in that order
ELEMENT_DIGEST = "07130cf263eab74dd7553aa6309ae1cfb933dfb31a7aae681d172b19282385aa"


def sample_digests(target, ladder_docs) -> dict:
    """{key: SHA-256} of every pinned report and of the pinned element bytes.

    ``ladder_docs`` maps a ladder rung's name to its document path.
    """
    target = Path(target)
    runs = [(f"{doc}:{n}", doc, n) for doc, pins in SHIPPED_SAMPLE_DIGESTS.items()
            for n in pins]
    runs += [(name, path, 50) for name, path in ladder_docs.items()]
    digests = {}
    for key, doc, n in runs:
        argv = ["fidelity", "--protocol", str(doc), "--povm-samples", str(n),
                "--seed", "3", "--out", str(target)]
        assert cli.main(argv) == 0, key
        digests[key] = hashlib.sha256(target.read_bytes()).hexdigest()
    h = hashlib.sha256()
    for d in (2, 8, 16):
        rng = np.random.default_rng(d)
        for _ in range(20):
            for el in random_povm(d, d + 1, rng).elements:
                h.update(el.tobytes())
    digests["elements"] = h.hexdigest()
    return digests


def _expected() -> dict:
    want = {f"{doc}:{n}": digest for doc, pins in SHIPPED_SAMPLE_DIGESTS.items()
            for n, digest in pins.items()}
    return {**want, **LADDER_SAMPLE_DIGESTS, "elements": ELEMENT_DIGEST}


def _ladder_paths(perfbench_gen, directory) -> dict:
    paths = {}
    for name, doc in perfbench_gen.ladder_documents(1, sizes=(8,)).items():
        paths[name] = directory / f"{name}.yaml"
        paths[name].write_text(perfbench_gen.to_yaml(doc), encoding="utf-8")
    assert sorted(paths) == sorted(LADDER_SAMPLE_DIGESTS)
    return paths


_PRINT_DIGESTS = (
    "import json, sys, test_povm_samples as t; "
    "print(json.dumps(t.sample_digests(sys.argv[1], json.loads(sys.argv[2]))))")


def test_sampled_reports_match_recorded_digests_at_one_and_two_blas_threads(
        perfbench_gen, tmp_path):
    paths = {name: str(path) for name, path in _ladder_paths(perfbench_gen, tmp_path).items()}
    path = os.pathsep.join(str(ROOT / d) for d in ("src", "tests"))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _PRINT_DIGESTS, str(tmp_path / f"report-{threads}.out"),
             json.dumps(paths)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert runs["1"] == runs["2"] == _expected()


# --- the stacked kernel ------------------------------------------------------

def _random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _chunks_of(monkeypatch, samples, dim, outcomes, count):
    """Set the budget to ``samples`` measurements beside ``count`` overlaps."""
    monkeypatch.setattr(fid, "POVM_BYTE_BUDGET", samples * fid.povm_sample_bytes(dim, outcomes)
                        + fid.OVERLAP_BYTES * count)
    assert povm_chunk(dim, outcomes, count) == samples


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_stacked_samples_equal_one_sample_calls(monkeypatch, dim):
    _chunks_of(monkeypatch, 3, dim, dim + 1, 7)
    rng = np.random.default_rng(dim)
    rho0, rho1 = _random_density(rng, dim), _random_density(rng, dim)
    stack = random_povms(dim, dim + 1, 7, np.random.default_rng(11))
    gen = np.random.default_rng(11)
    singles = [random_povm(dim, dim + 1, gen) for _ in range(7)]
    assert np.array_equal(stack, np.array([povm.elements for povm in singles]))
    overlaps = [povm_overlap(rho0, rho1, povm) for povm in singles]
    assert np.array_equal(povm_overlaps(rho0, rho1, stack), overlaps)
    assert np.array_equal(sample_overlaps(rho0, rho1, dim + 1, 7, 11), overlaps)


def test_a_chunk_boundary_keeps_the_report_bytes(monkeypatch, tmp_path):
    argv = ["fidelity", "--protocol", "bb84-bc", "--povm-samples", "7", "--seed", "3",
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    whole = (tmp_path / "report.json").read_bytes()
    p = document.load_protocol("bb84-bc")
    dim = 2 ** len(proto.bob_holding(p, proto.commit_custody(p)))
    _chunks_of(monkeypatch, 3, dim, dim + 1, 7)
    counts = []
    real = fid.random_povms
    monkeypatch.setattr(fid, "random_povms",
                        lambda d, m, count, rng: counts.append(count) or real(d, m, count, rng))
    assert cli.main(argv) == 0
    assert counts == [3, 3, 1]
    assert (tmp_path / "report.json").read_bytes() == whole


def _planted():
    """Five valid 2 x 2 three-outcome samples."""
    return random_povms(2, 3, 5, np.random.default_rng(5))


def test_a_non_psd_element_is_named_by_sample_and_element():
    stack = _planted()
    # move weight from element 1 to element 0 along its lowest eigenvector:
    # the sum stays the identity and both stay Hermitian
    vals, vecs = np.linalg.eigh(stack[3, 1])
    shift = (vals[0] + 1e-6) * np.outer(vecs[:, 0], vecs[:, 0].conj())
    stack[3, 1] -= shift
    stack[3, 0] += shift
    with pytest.raises(InvariantViolation, match=r"^sample 3, element 1 has eigenvalue"):
        check_povms(stack)


def test_a_non_hermitian_or_incomplete_sample_is_named():
    stack = _planted()
    stack[4, 2, 0, 1] += 1e-6
    with pytest.raises(InvariantViolation, match=r"^sample 4, element 2 is not Hermitian"):
        check_povms(stack)
    stack = _planted()
    stack[4, 2] *= 1 + 1e-6
    with pytest.raises(InvariantViolation, match=r"^sample 4: elements do not sum"):
        check_povms(stack)


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_one_chunk_stays_within_the_byte_budget(monkeypatch, dim):
    monkeypatch.setattr(fid, "POVM_BYTE_BUDGET", 8 << 20)
    count = povm_chunk(dim, dim + 1)
    rho = np.eye(dim) / dim
    tracemalloc.start()
    try:
        povm_overlaps(rho, rho, random_povms(dim, dim + 1, count, np.random.default_rng(1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= fid.POVM_BYTE_BUDGET


# --- the Cholesky pass -------------------------------------------------------

def _lowest_at(stack, s, i, low):
    """Move weight from element i to element 0 of sample s along i's lowest
    eigenvector until i's smallest eigenvalue is ``low``; the sample stays
    Hermitian and complete."""
    vals, vecs = np.linalg.eigh(stack[s, i])
    shift = (vals[0] - low) * np.outer(vecs[:, 0], vecs[:, 0].conj())
    stack[s, i] -= shift
    stack[s, 0] += shift
    assert np.linalg.eigvalsh(stack[s, i])[0] == pytest.approx(low, rel=1e-3)
    return stack


def _counting_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    return calls


def test_a_valid_stack_is_checked_without_eigenvalues(monkeypatch):
    calls = _counting_eigvalsh(monkeypatch)
    check_povms(random_povms(4, 5, 9, np.random.default_rng(2)))
    assert calls == []


def test_an_eigenvalue_of_half_the_tolerance_below_zero_passes(monkeypatch):
    stack = _lowest_at(random_povms(4, 5, 9, np.random.default_rng(2)), 4, 2,
                       -fid.POVM_PSD_TOL / 2)
    calls = _counting_eigvalsh(monkeypatch)
    check_povms(stack)
    assert calls == []


def test_an_eigenvalue_of_twice_the_tolerance_below_zero_is_named_in_the_middle():
    stack = _lowest_at(random_povms(4, 5, 9, np.random.default_rng(2)), 4, 2,
                       -2 * fid.POVM_PSD_TOL)
    low = float(np.linalg.eigvalsh(stack)[4, 2, 0])
    with pytest.raises(InvariantViolation) as info:
        check_povms(stack)
    assert str(info.value) == (
        f"sample 4, element 2 has eigenvalue {low!r} below -{fid.POVM_PSD_TOL}")


@pytest.mark.parametrize("entry", [(0, 1), (1, 0), (2, 2)], ids=["upper", "lower", "diagonal"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_element_is_named(entry, value):
    stack = random_povms(4, 5, 9, np.random.default_rng(2))
    stack[6, 3][entry] = value
    with pytest.raises(InvariantViolation, match=r"^sample 6, element 3 has a non-finite entry$"):
        check_povms(stack)
