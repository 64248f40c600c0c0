"""Bit commitment's honest execution on a parsed ``document.Protocol``.

The commit and open phases run as closed unitary circuits (``purify_protocol``
first when a document measures).  Bob's two commit views give the concealment
defect delta = 1 - F.  ``enumerate_branches`` takes measurements literally:
it is the oracle that purification is checked against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
# perfbench/spans.py swaps this module's ``yaml`` for a counting proxy
import yaml  # noqa: F401

from . import qcore
# the names this module's own code uses
from .document import ACTORS, MeasureOp, Protocol, ProtocolError, other_actor
# perfbench/spans.py looks these up here and counts them as protocol's
from .document import Projector, parse_protocol, purify_protocol, resolve_document  # noqa: F401
from .fidelity import fidelity_trace
from .qcore import GateOp, PureState
from .schmidt import UhlmannRotation

__all__ = [
    "alice_side",
    "bob_holding",
    "commit_custody",
    "commit_delta",
    "enumerate_acceptance",
    "enumerate_branches",
    "run_commit",
    "run_open",
]

BRANCH_CUTOFF = 1e-15
# Bob's holdings up to this many qubits take the trace route to F in
# commit_fidelity, which costs under 0.5 ms at this size.  The Gram route
# changes the last digits of delta, and the report bytes of the shipped
# documents, where Bob holds 2 qubits, are those of the trace route.
TRACE_ROUTE_MAX_QUBITS = 4


# ---------------------------------------------------------------------------
# honest execution


def _require_unitary(p: Protocol, operation: str):
    if p.has_measurements:
        raise ValueError(
            f"{operation} needs a measurement-free protocol; run purify_protocol first")


def run_commit(p: Protocol, b: int) -> PureState:
    """Joint pure state after Alice commits to bit ``b`` honestly."""
    if b not in (0, 1):
        raise ValueError(f"committed bit must be 0 or 1, got {b!r}")
    _require_unitary(p, "run_commit")
    return qcore.apply_circuit(p.partition.num_qubits, p.initial_alice[b],
                               p.initial_bob_channel, *(rnd.ops for rnd in p.commit_rounds))


def run_open(p: Protocol, state: PureState, claimed_b: int) -> float:
    """Apply the open rounds, then Bob's acceptance probability for the claim."""
    if claimed_b not in (0, 1):
        raise ValueError(f"claimed bit must be 0 or 1, got {claimed_b!r}")
    return p.verification[claimed_b].expectation(open_state(p, state))


def open_state(p: Protocol, state: PureState) -> PureState:
    """The joint state after the open rounds, applied once to a commit
    state; each of Bob's projectors can then be read from it."""
    _require_unitary(p, "run_open")
    if state.num_qubits != p.partition.num_qubits:
        raise ValueError(
            f"state has {state.num_qubits} qubits, protocol register has "
            f"{p.partition.num_qubits}")
    return qcore.apply_circuit(state, *(rnd.ops for rnd in p.open_rounds))


# ---------------------------------------------------------------------------
# channel custody and the concealment defect


def commit_custody(p: Protocol, override=None) -> str:
    """Who holds the channel when the commit phase ends.

    Default: the receiver of the last commit-round transmission; Bob when
    the commit phase is empty.
    """
    if override is not None:
        if override not in ACTORS:
            raise ValueError(f"custody must be alice or bob, got {override!r}")
        return override
    if p.commit_rounds:
        return other_actor(p.commit_rounds[-1].actor)
    return "bob"


def alice_side(p: Protocol, custody: str) -> tuple:
    """Alice's full holding at commit time: machine, her ancillas, channel if hers."""
    return p.partition.holding("alice", custody)


def bob_holding(p: Protocol, custody: str) -> tuple:
    return p.partition.holding("bob", custody)


def _capped_side(p: Protocol, actor: str, custody: str) -> tuple:
    """``actor``'s holding at commit time, refused before any gate runs when
    it is over MAX_SIDE_QUBITS, the cap on a side square matrices are
    formed on."""
    side = p.partition.holding(actor, custody)
    if len(side) > qcore.MAX_SIDE_QUBITS:
        raise ProtocolError(
            f"{actor}'s side holds {len(side)} qubits with the channel in {custody}'s "
            f"custody; sides are capped at {qcore.MAX_SIDE_QUBITS}", "qubits")
    return side


def _defect(fidelity: float) -> float:
    """delta = 1 - F, clamped to [0, 1]."""
    return min(max(1.0 - fidelity, 0.0), 1.0)


def commit_reductions(p: Protocol, custody: str, states):
    """Bob's holding reduced from the two honest commit states, and their fidelity.

    ``states`` yields run_commit(p, 0) and run_commit(p, 1); commit_delta
    passes a generator, so neither state outlives its reduction.  Returns
    (delta, F, rho0, rho1) with F = fidelity_trace(rho0, rho1).
    """
    keep = bob_holding(p, custody)
    rho0, rho1 = (qcore.partial_trace(state, keep) for state in states)
    fidelity = fidelity_trace(rho0, rho1)
    return _defect(fidelity), fidelity, rho0, rho1


def commit_fidelity(p: Protocol, custody: str, states):
    """Concealment defect and fidelity of Bob's two commit views.

    ``states`` is (run_commit(p, 0), run_commit(p, 1)).  Returns (delta, F,
    rotation): ``rotation`` is the ``UhlmannRotation`` of the two states on
    Alice's side, which computes nothing until it is read.  When Bob's
    holding is over TRACE_ROUTE_MAX_QUBITS qubits and Alice's side is no
    larger, F is the rotation's fidelity, the nuclear norm of Alice's
    cross-Gram (Uhlmann's theorem), taken from one SVD, and no
    2^|Bob|-wide matrix is formed.  Otherwise F takes the trace route of
    commit_reductions.

    The rotation's Schmidt-rank bound is the channel's qubits times the
    commit rounds: Alice and Bob interact only through the channel, and
    each round hands it over once, so the rank across the lab cut grows by
    at most 2^|channel| a round.  Purified classical control can cross the
    cut without the channel, so the bound only sizes the sketch;
    ``UhlmannRotation`` keeps a basis only where its measured residual
    passes.
    """
    a_side, keep = alice_side(p, custody), bob_holding(p, custody)
    rotation = UhlmannRotation(*states, a_side,
                               len(p.partition.channel_qubits) * len(p.commit_rounds))
    # With Alice's side the larger, the trace route's 2^|Bob|-wide kernels
    # cost far less than the 2^|A|-wide SVD: simulate ran 16-28x slower on
    # the Gram route there (Alice 10-12 qubits, Bob holding 6-9, 2 cores),
    # and an Alice side over MAX_SIDE_QUBITS would refuse a document the
    # trace route can score.
    if len(keep) > TRACE_ROUTE_MAX_QUBITS and len(a_side) <= len(keep):
        return _defect(rotation.fidelity), rotation.fidelity, rotation
    delta, fidelity, _, _ = commit_reductions(p, custody, states)
    return delta, fidelity, rotation


def commit_delta(p: Protocol, custody=None):
    """Concealment defect after the commit phase.

    Returns (delta, rho0, rho1) where rho_b is Bob's holding reduced from
    the honest commit state for bit b and delta = 1 - F(rho0, rho1).
    """
    custody = commit_custody(p, custody)
    delta, _, rho0, rho1 = commit_reductions(
        p, custody, (run_commit(p, b) for b in (0, 1)))
    return delta, rho0, rho1


# ---------------------------------------------------------------------------
# exact branch enumeration of un-purified protocols (measurement oracle)


def enumerate_branches(p: Protocol, b: int):
    """All classical branches of an honest run, measurements taken literally.

    Returns a list of (probability, results dict, final PureState); branch
    probabilities below 1e-15 are dropped.
    """
    if b not in (0, 1):
        raise ValueError(f"committed bit must be 0 or 1, got {b!r}")
    state = qcore.apply_circuit(p.partition.num_qubits, p.initial_alice[b],
                                p.initial_bob_channel)
    branches = [(1.0, {}, state)]
    for rnd in p.all_rounds:
        for measured, run in itertools.groupby(rnd.ops, lambda op: isinstance(op, MeasureOp)):
            if measured:
                for op in run:
                    branches = _measure_branches(branches, op)
                continue
            # each branch applies the run as one circuit; a classically
            # controlled gate fires bare when every bit it names is 1
            run = tuple(run)
            next_branches = []
            for prob, results, st in branches:
                fired = [op if op.control_classical is None
                         else GateOp(op.kind, op.targets, param=op.param, matrix=op.matrix)
                         for op in run
                         if op.control_classical is None or all(results[op.control_classical])]
                next_branches.append((prob, results, qcore.apply_circuit(st, fired)))
            branches = next_branches
    return branches


def _measure_branches(branches, op: MeasureOp):
    k = len(op.targets)
    out = []
    for prob, results, state in branches:
        for value in range(2 ** k):
            proj = np.zeros((2 ** k, 2 ** k), dtype=complex)
            proj[value, value] = 1.0
            amps = qcore._apply_matrix(state.amplitudes, proj, op.targets,
                                       state.num_qubits)
            weight = float(np.real(np.vdot(amps, amps)))
            if prob * weight <= BRANCH_CUTOFF:
                continue
            bits = tuple((value >> (k - 1 - i)) & 1 for i in range(k))
            new_results = dict(results)
            new_results[op.result_id] = bits
            out.append((prob * weight, new_results, PureState._of(amps / math.sqrt(weight))))
    return out


def enumerate_acceptance(p: Protocol, b: int, claimed_b: int) -> float:
    """Acceptance probability with measurements branch-enumerated exactly."""
    if claimed_b not in (0, 1):
        raise ValueError(f"claimed bit must be 0 or 1, got {claimed_b!r}")
    projector = p.verification[claimed_b]
    return sum(prob * projector.expectation(state)
               for prob, _, state in enumerate_branches(p, b))
