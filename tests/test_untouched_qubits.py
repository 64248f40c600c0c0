"""Circuits started from |0...0> hold only the qubits their gates have reached.

``qcore.apply_circuit`` given a register size keeps untouched qubits out of
the state tensor.  These tests pin that route to the full register's
amplitudes bit for bit, on every caller that starts from |0...0>, and show
that the contractions really run on the smaller tensors.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcheat import cointoss, qcore
from qcheat.cointoss import parse_coin_protocol
from qcheat.document import load_protocol, parse_protocol, purify_protocol
from qcheat.protocol import commit_fidelity, enumerate_branches, run_commit
from qcheat.qcore import zero_state


def full_register(monkeypatch, call):
    """``call()`` with every |0...0> start materialised as ``zero_state``."""
    real = qcore.apply_circuit

    def materialised(state, *op_lists):
        if isinstance(state, int):
            state = zero_state(state)
        return real(state, *op_lists)

    with monkeypatch.context() as patch:
        patch.setattr(qcore, "apply_circuit", materialised)
        return call()


def assert_same_bytes(got, want):
    assert got.num_qubits == want.num_qubits
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def commit_states(p):
    return tuple(run_commit(p, b) for b in (0, 1))


@pytest.mark.parametrize("n", [6, 9, 13])
def test_ladder_commit_states_equal_the_full_register(perfbench_gen, monkeypatch, n):
    for name, doc in perfbench_gen.ladder_documents(1, sizes=(n,)).items():
        p = parse_protocol(doc)
        states = commit_states(p)
        want = full_register(monkeypatch, lambda: commit_states(p))
        for got, expected in zip(states, want):
            assert_same_bytes(got, expected)
        for custody in ("alice", "bob"):
            assert (commit_fidelity(p, custody, states)[:2]
                    == commit_fidelity(p, custody, want)[:2]), (name, custody)


def round_states(p):
    return [*cointoss._round_states(p), cointoss.run_rounds(p)]


@pytest.mark.parametrize("variant", ["fixed", "hadamard"])
def test_coin_round_states_equal_the_full_register(perfbench_gen, monkeypatch, variant):
    p = parse_coin_protocol(perfbench_gen.coin_documents(1, 8)[f"coin-r8-{variant}"])
    states = round_states(p)
    want = full_register(monkeypatch, lambda: round_states(p))
    assert len(states) == 10
    for got, expected in zip(states, want):
        assert_same_bytes(got, expected)


def commit_routes(p):
    """Both bits through ``run_commit`` purified and through branch enumeration."""
    branches = [state for b in (0, 1) for _, _, state in enumerate_branches(p, b)]
    return [*commit_states(purify_protocol(p)), *branches]


@pytest.mark.parametrize("source", ["bell-bc", "bb84-bc", "leaky-bc", "ideal-ct", "guess-ct"])
def test_shipped_states_equal_the_full_register(monkeypatch, source):
    if source.endswith("-ct"):
        p = cointoss.load_coin_protocol(source)
        run = lambda: round_states(p)  # noqa: E731
    else:
        p = load_protocol(source)
        run = lambda: commit_routes(p)  # noqa: E731
    states = run()
    want = full_register(monkeypatch, run)
    assert len(states) == len(want) >= 3
    for got, expected in zip(states, want):
        assert_same_bytes(got, expected)


@pytest.mark.parametrize("b", [0, 1])
def test_first_round_contracts_only_the_qubits_it_reached(perfbench_gen, monkeypatch, b):
    # Alice's first round reaches her machine and the channel; Bob's lab is
    # still |0...0> and stays out of the tensor
    p = parse_protocol(perfbench_gen.ladder_documents(1, sizes=(13,))["ladder-n13-verify"])
    fused = [len(qcore._fused_blocks(ops, 13)) for ops in
             (p.initial_alice[b], p.initial_bob_channel, *(r.ops for r in p.commit_rounds))]
    sizes = []
    real = qcore._contract
    monkeypatch.setattr(qcore, "_contract",
                        lambda psi, *rest: sizes.append(psi.size) or real(psi, *rest))
    run_commit(p, b)
    # fusion contracts into identities first; the state's blocks come last
    state_sizes = sizes[-sum(fused):]
    first_round = state_sizes[:sum(fused[:3])]
    alice = len(p.partition.alice_qubits)
    assert alice == 6 and fused[2] >= 2
    assert max(first_round) <= 2 ** (alice + 1)
    assert max(state_sizes) == 2 ** 13


_COMMIT_DIGESTS = """
import hashlib, json, gen
from qcheat.document import parse_protocol
from qcheat.protocol import run_commit
digests = {}
for name, doc in gen.ladder_documents(1, sizes=(13, 14)).items():
    p = parse_protocol(doc)
    for b in (0, 1):
        amps = run_commit(p, b).amplitudes
        digests[f"{name}:{b}"] = hashlib.sha256(amps.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def test_commit_states_do_not_depend_on_blas_threads():
    # compare the two children, not recorded digests: the gate kernel's
    # bytes must not depend on how OpenBLAS splits the columns
    root = Path(__file__).resolve().parent.parent
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            str(root / d) for d in ("src", "perfbench")),
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _COMMIT_DIGESTS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert len(runs["1"]) == 8
    assert runs["1"] == runs["2"]


_OPEN_DIGESTS = """
import hashlib, json, gen
from qcheat.document import parse_protocol
from qcheat.protocol import open_state, run_commit
digests = {}
for name, doc in gen.ladder_documents(1, sizes=(13, 14)).items():
    p = parse_protocol(doc)
    for b in (0, 1):
        amps = open_state(p, run_commit(p, b)).amplitudes
        digests[f"{name}:{b}"] = hashlib.sha256(amps.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def test_opened_states_do_not_depend_on_blas_threads():
    # the open round starts from a whole register, so its block runs on the
    # state's own tensor and the work buffers, not on a held tensor
    root = Path(__file__).resolve().parent.parent
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            str(root / d) for d in ("src", "perfbench")),
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _OPEN_DIGESTS],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert len(runs["1"]) == 8
    assert runs["1"] == runs["2"]
