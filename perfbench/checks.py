"""Independent output checks, run after the timed ops.

The ladder reference simulates the generated gate lists with its own
statevector code (one matmul per gate), not qcheat's, and gets 1 - delta
from Uhlmann's theorem as the nuclear norm of the cross-Gram on the
smaller side.  The induction check compares with what the coin
construction implies.  The shipped-document check compares the report
bytes with the SHA-256 digests the seed commit's reports have.
"""

from __future__ import annotations

import hashlib

import numpy as np

LADDER_TOL = 1e-8
COIN_TOL = 1e-9


# ---------------------------------------------------------------------------
# attack ladder


def _matrix(node) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in node["matrix"]])


_FIXED = {"X": np.array([[0, 1], [1, 0]], dtype=complex)}


def _gate(node) -> np.ndarray:
    return _matrix(node) if node["gate"] == "RAW" else _FIXED[node["gate"]]


def _apply(psi: np.ndarray, n: int, u: np.ndarray, targets) -> np.ndarray:
    """Apply a one- or two-qubit unitary; qubit 0 is the most significant bit.

    The target axes are moved to the front and the gate is one matmul.
    """
    if len(targets) == 1:
        (q,) = targets
        view = psi.reshape(2 ** q, 2, 2 ** (n - q - 1)).swapaxes(0, 1)
        return (u @ view.reshape(2, -1)).reshape(view.shape).swapaxes(0, 1).reshape(-1)
    q1, q2 = targets
    if q1 > q2:
        q1, q2 = q2, q1
        u = u.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    view = psi.reshape(2 ** q1, 2, 2 ** (q2 - q1 - 1), 2, 2 ** (n - q2 - 1))
    front = np.moveaxis(view, (1, 3), (0, 1))
    out = (u @ front.reshape(4, -1)).reshape(front.shape)
    return np.moveaxis(out, (0, 1), (1, 3)).reshape(-1)


def _run(psi, n, nodes):
    for node in nodes:
        psi = _apply(psi, n, _gate(node), node["targets"])
    return psi


def _accept(psi: np.ndarray, n: int, spec) -> float:
    """Acceptance probability of one verify entry (None: accept everything)."""
    if spec is None:
        return float(np.vdot(psi, psi).real)
    psi = _run(psi, n, spec.get("gates", []))
    q1, q2 = spec["qubits"]
    probs = np.abs(psi.reshape(2 ** q1, 2, 2 ** (q2 - q1 - 1), 2, -1)) ** 2
    probs = probs.sum(axis=(0, 2, 4))
    return float(sum(probs[int(s[0]), int(s[1])] for s in spec["accept_states"]))


def ladder_reference(doc: dict) -> dict:
    """delta and both honest acceptances of one generated ladder document."""
    counts = doc["qubits"]
    na, nb = counts["alice"], counts["bob"]
    n = na + nb + 1
    verify = doc.get("verify", {})
    commits, honest = [], []
    for b in (0, 1):
        psi = np.zeros(2 ** n, dtype=complex)
        psi[0] = 1.0
        psi = _run(psi, n, doc["initial"].get(f"alice{b}", []))
        for rnd in doc["commit_rounds"]:
            psi = _run(psi, n, rnd["ops"])
        commits.append(psi)
        for rnd in doc["open_rounds"]:
            psi = _run(psi, n, rnd["ops"])
        honest.append(_accept(psi, n, verify.get(f"accept_b{b}")))
    # custody ends with Bob, so Alice holds exactly qubits 0..na-1: the rows.
    # Bob also holds the channel, so Alice's side is the smaller one.
    m0, m1 = (psi.reshape(2 ** na, -1) for psi in commits)
    assert m0.shape[0] <= m0.shape[1], "Alice's side is the larger one"
    gram = m1 @ m0.conj().T
    fidelity = float(np.linalg.svd(gram, compute_uv=False).sum())
    return {"delta": min(max(1.0 - fidelity, 0.0), 1.0), "honest_accept": honest}


def check_ladder(report: dict, op, ref: dict) -> str | None:
    if report.get("command") != op.kind or report.get("protocol") != op.doc:
        return "wrong command or protocol in report"
    if abs(report["delta"] - ref["delta"]) > LADDER_TOL:
        return f"delta {report['delta']} != reference {ref['delta']}"
    for b in (0, 1):
        got = report["honest_accept"][str(b)]
        if abs(got - ref["honest_accept"][b]) > LADDER_TOL:
            return f"honest_accept[{b}] {got} != reference {ref['honest_accept'][b]}"
    return None


# ---------------------------------------------------------------------------
# long induction


def coin_expectation(doc: dict) -> dict:
    """What the construction implies for one generated coin document."""
    rounds = len(doc["rounds"])
    if "initial" in doc:  # Alice's H: a fair coin that round 1 cannot hide
        p = {"0": 0.5, "1": 0.5, "invalid": 0.0}
        return {"verdict": "not_ideal", "witness_round": 1, "steps": rounds - 1,
                "witness_fidelity": 1.0, "distribution": {"alice": p, "bob": p}}
    p = {"0": 1.0, "1": 0.0, "invalid": 0.0}
    return {"verdict": "contradiction", "witness_round": None, "steps": rounds,
            "mutual_information": 0.0, "distribution": {"alice": p, "bob": p}}


def check_coin(report: dict, op, want: dict) -> str | None:
    if report.get("command") != "cointoss" or report.get("protocol") != op.doc:
        return "wrong command or protocol in report"
    for key in ("verdict", "witness_round"):
        if report[key] != want[key]:
            return f"{key} {report[key]!r}, want {want[key]!r}"
    if len(report["steps"]) != want["steps"]:
        return f"{len(report['steps'])} truncations, want {want['steps']}"
    for key in ("witness_fidelity", "mutual_information"):
        if key in want and abs(report[key] - want[key]) > COIN_TOL:
            return f"{key} {report[key]}, want {want[key]}"
    for actor, probs in want["distribution"].items():
        for label, p in probs.items():
            got = report["outcome_distribution"][actor][label]
            if abs(got - p) > COIN_TOL:
                return f"{actor} outcome {label} has probability {got}, want {p}"
    return None


# ---------------------------------------------------------------------------
# shipped documents


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_shipped(data: bytes, op, expected: dict) -> str | None:
    """The report bytes must be the seed commit's, digest for digest."""
    if sha256(data) != expected[op.key]:
        return "output differs from the seed commit's"
    return None
