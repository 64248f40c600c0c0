"""Seeded workload inputs: protocol documents and the argv of every op.

Every generator is a pure function of its seed.  Random unitaries are built
by Gram-Schmidt in plain Python complex arithmetic from numpy's PCG64
Gaussian stream, so the same seed yields byte-identical YAML whatever BLAS
the machine runs.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

LADDER_SIZES = tuple(range(13, 20))
INDUCTION_ROUNDS = 128
SWEEP_GRID = "0:1.5707963267948966:9"
POVM_ARGS = ("--povm-samples", "200", "--seed", "7")
SHIPPED_COMMITMENTS = ("bell-bc", "bb84-bc", "leaky-bc(0.5)")
SHIPPED_COINS = ("ideal-ct", "guess-ct")


class Op:
    """One closed-loop call: the argv for ``qcheat.cli.main`` minus ``--out``.

    ``kind`` is the CLI command, ``doc`` the document key the checks look up,
    ``fmt`` the report format (None for purify, which writes YAML).
    """

    def __init__(self, key, argv, kind, doc, fmt):
        self.key = key
        self.argv = list(argv)
        self.kind = kind
        self.doc = doc
        self.fmt = fmt


def to_yaml(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None,
                          width=10 ** 6)


def haar_unitary(rng, dim: int):
    """Haar-random unitary as nested [re, im] rows (document matrix form)."""
    re = rng.standard_normal((dim, dim))
    im = rng.standard_normal((dim, dim))
    cols = []
    for j in range(dim):
        v = [complex(float(re[i, j]), float(im[i, j])) for i in range(dim)]
        for u in cols:
            dot = sum(x.conjugate() * y for x, y in zip(u, v))
            v = [y - dot * x for x, y in zip(u, v)]
        norm = math.sqrt(sum(abs(y) ** 2 for y in v))
        cols.append([y / norm for y in v])
    return [[[cols[j][i].real, cols[j][i].imag] for j in range(dim)]
            for i in range(dim)]


def raw_gate(rng, targets) -> dict:
    return {"gate": "RAW", "targets": list(targets),
            "matrix": haar_unitary(rng, 2 ** len(targets))}


def _chain(rng, machine, channel):
    wires = list(machine) + [channel]
    return [raw_gate(rng, pair) for pair in zip(wires, wires[1:])]


def ladder_document(rng, name: str, alice: int, bob: int, verify: bool) -> dict:
    """Random commitment on alice + bob + 1 channel qubits.

    Three commit rounds (alice, bob, alice) chain Haar-random two-qubit
    gates along each machine and onto the channel, so custody ends with
    Bob; one open round by Bob.  ``verify`` adds a two-qubit acceptance
    test on Bob's last qubit and the channel; without it Bob accepts
    everything, which exercises the dense identity projector.
    """
    a = range(alice)
    b = range(alice, alice + bob)
    channel = alice + bob
    doc = {
        "name": name,
        "kind": "bit-commitment",
        "qubits": {"alice": alice, "bob": bob, "channel": 1},
        "initial": {"alice1": [{"gate": "X", "targets": [0]}]},
        "commit_rounds": [
            {"actor": "alice", "ops": _chain(rng, a, channel)},
            {"actor": "bob", "ops": _chain(rng, b, channel)},
            {"actor": "alice", "ops": _chain(rng, a, channel)},
        ],
        "open_rounds": [
            {"actor": "bob", "ops": [raw_gate(rng, (b[0], channel))]},
        ],
    }
    if verify:
        pair = [b[-1], channel]
        doc["verify"] = {
            "accept_b0": {"qubits": pair, "gates": [raw_gate(rng, pair)],
                          "accept_states": ["00", "01"]},
            "accept_b1": {"qubits": pair, "gates": [raw_gate(rng, pair)],
                          "accept_states": ["10", "11"]},
        }
    return doc


def ladder_documents(seed: int, sizes=LADDER_SIZES) -> dict:
    """Two documents per rung, keyed by name; the first is attacked.

    Even n: the larger machine with Alice, then with Bob.  Odd n: an even
    split, with a verify section, then without one.
    """
    rng = np.random.default_rng([seed, 1])
    docs = {}
    for n in sizes:
        half = (n - 1) // 2
        if n % 2 == 0:
            shapes = ((f"ladder-n{n}-alice-big", half + 1, half, True),
                      (f"ladder-n{n}-bob-big", half, half + 1, True))
        else:
            shapes = ((f"ladder-n{n}-verify", half, half, True),
                      (f"ladder-n{n}-open", half, half, False))
        for name, alice, bob, verify in shapes:
            docs[name] = ladder_document(rng, name, alice, bob, verify)
    return docs


def ladder_ops(docs: dict, paths: dict) -> list:
    ops = []
    for i, name in enumerate(docs):
        kind = "attack" if i % 2 == 0 else "simulate"
        ops.append(Op(f"{kind}:{name}", [kind, "--protocol", paths[name]],
                      kind, name, "json"))
    return ops


def _bit_rule(qubit: int) -> dict:
    return {
        "0": {"qubits": [qubit], "accept_states": ["0"]},
        "1": {"qubits": [qubit], "accept_states": ["1"]},
        "invalid": {"qubits": [qubit], "zero": True},
    }


def coin_document(name: str, padding, hadamard: bool) -> dict:
    """ideal-ct's two CX rounds on 3 + 3 + 1 qubits, then ``padding`` rounds.

    Alice's outcome qubit is 0, Bob's is 3, the channel is 6.  Each padding
    round's sender applies Z to its outcome qubit and RY to one idle qubit
    of its own.  With ``hadamard`` Alice first puts her outcome qubit in
    superposition, which makes round 1 non-orthogonal.
    """
    rounds = [
        {"actor": "alice", "ops": [{"gate": "CX", "targets": [0, 6]}]},
        {"actor": "bob", "ops": [{"gate": "CX", "targets": [6, 3]}]},
    ]
    for idle, angle in padding:
        actor = "alice" if len(rounds) % 2 == 0 else "bob"
        outcome = 0 if actor == "alice" else 3
        rounds.append({"actor": actor, "ops": [
            {"gate": "Z", "targets": [outcome]},
            {"gate": "RY", "targets": [outcome + 1 + idle], "angle": angle},
        ]})
    doc = {
        "name": name,
        "kind": "coin-toss",
        "qubits": {"alice": 3, "bob": 3, "channel": 1},
    }
    if hadamard:
        doc["initial"] = {"alice": [{"gate": "H", "targets": [0]}]}
    doc["rounds"] = rounds
    doc["outcomes"] = {"alice": _bit_rule(0), "bob": _bit_rule(3)}
    return doc


def coin_documents(seed: int, rounds: int = INDUCTION_ROUNDS) -> dict:
    """The deterministic coin and the Hadamard coin, sharing one padding."""
    rng = np.random.default_rng([seed, 2])
    padding = [(int(rng.integers(2)), float(rng.uniform(0.0, math.pi)))
               for _ in range(rounds - 2)]
    return {
        f"coin-r{rounds}-fixed": coin_document(f"coin-r{rounds}-fixed", padding, False),
        f"coin-r{rounds}-hadamard": coin_document(f"coin-r{rounds}-hadamard", padding, True),
    }


def coin_ops(docs: dict, paths: dict) -> list:
    return [Op(f"cointoss:{name}", ["cointoss", "--protocol", paths[name]],
               "cointoss", name, "json") for name in docs]


def shipped_ops() -> list:
    """The fixed argv list over the shipped documents, JSON then CSV."""
    ops = []
    for fmt in ("json", "csv"):
        out = ["--output", fmt]
        for doc in SHIPPED_COMMITMENTS:
            ops.append(Op(f"simulate:{doc}:{fmt}",
                          ["simulate", "--protocol", doc] + out, "simulate", doc, fmt))
            ops.append(Op(f"attack:{doc}:{fmt}",
                          ["attack", "--protocol", doc] + out, "attack", doc, fmt))
            ops.append(Op(f"fidelity:{doc}:{fmt}",
                          ["fidelity", "--protocol", doc, *POVM_ARGS] + out,
                          "fidelity", doc, fmt))
        ops.append(Op(f"sweep:leaky-bc(0.5):{fmt}",
                      ["sweep", "--protocol", "leaky-bc(0.5)", "--grid", SWEEP_GRID] + out,
                      "sweep", "leaky-bc(0.5)", fmt))
        for doc in SHIPPED_COINS:
            ops.append(Op(f"cointoss:{doc}:{fmt}",
                          ["cointoss", "--protocol", doc] + out, "cointoss", doc, fmt))
    for doc in SHIPPED_COMMITMENTS + SHIPPED_COINS:
        ops.append(Op(f"purify:{doc}", ["purify", "--protocol", doc],
                      "purify", doc, None))
    return ops
