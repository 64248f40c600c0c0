"""Alice's EPR cheating strategy, run end to end against a parsed protocol.

The script is always the same: commit honestly to b=0 while keeping every
qubit she is allowed to keep in superposition, decide the bit at open
time, and if the decision is 1, rotate her own holding by the unitary
that best aligns the b=0 commit state with the b=1 commit state.  The
achievable overlap is exactly the fidelity of Bob's two reduced states,
so a concealing protocol (small delta) is an open book for her.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import document as doc
from . import protocol as proto
from .document import Protocol, ProtocolError
from .qcore import InvariantViolation

__all__ = [
    "AttackReport",
    "SweepPoint",
    "attack_sweep",
    "epr_attack",
]

PROBABILITY_CEILING = 1.0 + 1e-9
OVERLAP_IDENTITY_TOL = 1e-6
CHEAT_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class AttackReport:
    """Success metrics of one EPR attack."""

    protocol_name: str
    channel_custody: str
    delta: float
    fidelity: float
    achieved_overlap: float
    honest_accept: tuple
    cheat_accept: float

    def __post_init__(self):
        object.__setattr__(self, "honest_accept", tuple(self.honest_accept))
        fields = [
            ("delta", self.delta),
            ("fidelity", self.fidelity),
            ("achieved_overlap", self.achieved_overlap),
            ("honest_accept[0]", self.honest_accept[0]),
            ("honest_accept[1]", self.honest_accept[1]),
            ("cheat_accept", self.cheat_accept),
        ]
        for name, value in fields:
            if not 0.0 <= value <= PROBABILITY_CEILING:
                raise InvariantViolation(
                    f"attack report field {name} = {value} outside [0, 1]")
        drift = abs(self.achieved_overlap - (1.0 - self.delta))
        if drift > OVERLAP_IDENTITY_TOL:
            raise InvariantViolation(
                f"achieved overlap {self.achieved_overlap} disagrees with "
                f"1 - delta = {1.0 - self.delta} by {drift:.3e}")
        # Bob's acceptance is one projector after one unitary, so it tells the
        # cheat state from the honest b=1 state no better than their trace
        # distance sqrt(1 - overlap^2) does (Lo-Chau's cheat bound)
        gap = abs(self.cheat_accept - self.honest_accept[1])
        bound = math.sqrt(max(0.0, 1.0 - self.achieved_overlap ** 2))
        if gap > bound + CHEAT_BOUND_TOL:
            raise InvariantViolation(
                f"cheat acceptance {self.cheat_accept} is {gap:.3e} from the honest "
                f"b=1 acceptance, beyond the trace-distance bound {bound:.3e}")


def epr_attack(p: Protocol, custody=None) -> AttackReport:
    """Synthesize and score Alice's cheating rotation against ``p``.

    The rotation acts on Alice's machine, her ancillas, and the channel
    when custody assigns it to her; Bob's holding is untouched, so his
    acceptance of the switched bit is the whole story.
    """
    custody = proto.commit_custody(p, custody)
    proto._capped_side(p, "alice", custody)
    states = (proto.run_commit(p, 0), proto.run_commit(p, 1))

    delta, fidelity, rotation = proto.commit_fidelity(p, custody, states)
    # the overlap is measured on the state the rotation produces, so the
    # report's overlap = 1 - delta check holds it against a second number
    cheat_state = rotation.cheat_state()
    overlap = float(abs(np.vdot(states[1].amplitudes, cheat_state.amplitudes)))
    honest = tuple(proto.run_open(p, states[b], b) for b in (0, 1))
    cheat = proto.run_open(p, cheat_state, 1)

    return AttackReport(
        protocol_name=p.name, channel_custody=custody, delta=delta,
        fidelity=fidelity, achieved_overlap=overlap, honest_accept=honest,
        cheat_accept=cheat)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a parameter sweep; exactly one of report/error is set."""

    param: str
    value: float
    report: AttackReport | None
    error: str | None


def sweep_parameter(p: Protocol, param=None) -> str:
    """The parameter a sweep varies: the named one, or ``p``'s only one."""
    params = p.params
    if param is not None:
        if param not in params:
            raise ProtocolError(f"protocol declares no parameter {param!r}", "params")
        return param
    if len(params) == 1:
        return next(iter(params))
    raise ProtocolError(
        "sweep family must declare exactly one parameter, or name one explicitly",
        "params")


def attack_sweep(source, grid, *, param=None, custody=None):
    """Run epr_attack across a parameter grid; per-point input errors stay in-row.

    A document that does not parse at its declared parameters, or whose
    Alice side is over the cap, raises before the grid runs, rather than
    copying one error into every row; purification adds the same ancillas
    at every value, so the side is read once, purified.  A broken invariant
    at any point is not an input error, and propagates.
    """
    document = source if isinstance(source, dict) else doc.resolve_document(source)[0]
    declared = doc.parse_protocol(document)
    param = sweep_parameter(declared, param)
    declared = doc.purify_protocol(declared)
    proto._capped_side(declared, "alice", proto.commit_custody(declared, custody))
    points = []
    for raw in grid:
        value = float(raw)
        try:
            p = doc.parse_protocol(document, param_overrides={param: value})
            p = doc.purify_protocol(p)
            report = epr_attack(p, custody=custody)
            points.append(SweepPoint(param, value, report, None))
        except ValueError as exc:
            points.append(SweepPoint(param, value, None, str(exc)))
    return points
