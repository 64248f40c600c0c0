"""Ideal coin tossing cannot exist; this module grinds out the proof.

The argument is backward induction.  In an ideal protocol the party about
to send the last message already knows the outcome, so conditioning on
that outcome must leave the receiver with perfectly distinguishable
states -- pairwise fidelity zero.  When that holds, the last round can be
deleted: the receiver reads the outcome off the support projectors of the
conditional states instead of waiting for the message.  Iterating strips
every round.  A zero-round protocol starts from a product state, whose
halves share no mutual information, so the parties cannot agree on a
random outcome: contradiction.  A protocol where some conditional pair
stays distinguishable only with error certifies itself as not ideal, with
the offending fidelity as witness.

Truncation rewrites outcome rules only, so the honest state after rounds
1..k is the same in every truncation that keeps round k.  ``induction_report``
therefore runs the rounds forward once, keeping each round's state
((N+1) * 2^n * 16 bytes for N rounds on n qubits), and consumes them from
the last round back: gate applications are linear in the round count.

Each step runs on coefficient matrices, as the attack does, and takes its
fidelities by Uhlmann's theorem (Uhlmann 1976; Jozsa, J. Mod. Opt. 41,
1994).  The sender's rules are isometries V with P = V V^dagger: a document
rule's V is built by the parser (see ``document.Projector``), and every
later rule's by the step before, so no step takes an ``eigh``.  For each
label, V^dagger contracted into psi_k and cut with rows on the receiver's
machine gives X with X X^dagger = p rho: p = ||X||_F^2 is the label's
probability and rho the receiver's conditional state.  The pairwise
fidelity is ||X_x^dagger X_y||_* / sqrt(p_x p_y), clamped at 1.  One thin
SVD per present label gives the receiver's new rule, the left singular
vectors with sigma^2 / p > SUPPORT_CUTOFF; a label that never occurs gets
no rule, and "invalid" is the orthogonal complement of the "0" and "1"
rules.  No reduced density matrix, matrix square root or projector is
formed, and the checks those made stay at every step:

* ``_conditionals``: the three probabilities sum to 1 within
  COMPLETENESS_TOL;
* ``_condition``: the invalid outcome's purity, sum sigma^4 / p^2, is 1
  within PURITY_TOL (unless ``allow_mixed_invalid``), and
  ``FidelityTriple`` checks its bounds;
* ``_receiver_rules``: each new rule is an isometry within PROJECTOR_TOL,
  checked by ``Projector._of``, which skips only the copy of V and the
  check of the qubit list, the receiver's sorted holding; and the supports
  of "0" and "1" do not overlap, every singular value of [V0 V1] being 1
  within PROJECTOR_TOL (a ``tol`` loose enough to let them overlap is a
  ValueError).

``fidelity.fidelity_trace`` on the reduced states stays the independent
route the tests compare against.  psi_k is cut by ``qcore._split``, with
rows on the receiver and the rule qubits leading the columns.

``document.parse_coin_protocol`` checks each invariant of a document once,
and ``truncate_last_round`` keeps each by construction.
Deleting the last round leaves the rounds alternating and measurement-free,
and both actors get rules under the same three labels.  The receiver, who
sends the new last round, gets rules on their machine whose isometries
together span it: invalid is the orthogonal complement of [V0 V1].  The
sender, who now receives the channel, gets U^dagger (V x I) for each rule,
lifted to their machine and the channel and rotated back through the
deleted round's unitary U: their sum stays I up to rounding.

``induction_report`` builds neither a truncated protocol nor a pulled-back
rule.  The parser requires the rounds to alternate actors, so the receiver
of round k+1 is the sender of round k: the step deleting round k conditions
on the rules the step before built for its receiver, and the pulled-back
rules of round k+1's sender would be replaced unread.  The only thing they
told was who holds the channel at the end, and that is round 1's sender.

The round-count module ties off the quantitative side: any protocol whose
per-round information advance is at most epsilon while the parties' known
information never drifts apart by more than epsilon needs at least
ceil(1/epsilon) rounds to walk from (0,0) to (1,1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import qcore
# parse_coin_protocol stays a cointoss name too: the traced benchmark
# counts it here
from .document import (
    ACTORS,
    COMPLETENESS_TOL,
    OUTCOME_LABELS,
    PROJECTOR_TOL,
    CoinProtocol,
    Projector,
    other_actor,
    parse_coin_protocol,
)
from .qcore import InvariantViolation, Partition, PureState

__all__ = [
    "FidelityTriple",
    "InductionVerdict",
    "NotIdealError",
    "TruncationStep",
    "WalkResult",
    "induction_report",
    "last_round_fidelities",
    "min_rounds",
    "outcome_distribution",
    "run_rounds",
    "truncate_last_round",
    "validate_walk",
]

IDEAL_TOL = 1e-8
SUPPORT_CUTOFF = 1e-10
PRESENCE_CUTOFF = 1e-12
PURITY_TOL = 1e-8
MI_TOL = 1e-9
FLOAT_DENOMINATOR_CAP = 10 ** 12


@dataclass(frozen=True)
class FidelityTriple:
    """Pairwise fidelities of the receiver's conditional states.

    An entry is None when either outcome of its pair never occurs; absent
    pairs are vacuously orthogonal, so they count as 0 toward the maximum.
    ``present`` lists the outcome labels that actually occur.
    """

    f01: float | None
    f0inv: float | None
    f1inv: float | None
    present: tuple

    def __post_init__(self):
        for label, value in self.items():
            if value is not None and not -1e-12 <= value <= 1.0 + 1e-9:
                raise InvariantViolation(
                    f"fidelity {label} = {value} outside [0, 1]")
        bad = [p for p in self.present if p not in OUTCOME_LABELS]
        if bad:
            raise InvariantViolation(f"unknown outcome label {bad[0]!r}")
        object.__setattr__(self, "present", tuple(self.present))

    def items(self):
        return (("f01", self.f01), ("f0inv", self.f0inv), ("f1inv", self.f1inv))

    def max_fidelity(self) -> float:
        values = [v for _, v in self.items() if v is not None]
        return max(values) if values else 0.0

    def worst_pair(self):
        """(name, value) of the largest present fidelity, or (None, 0.0)."""
        best = (None, 0.0)
        for label, value in self.items():
            if value is not None and value >= best[1]:
                best = (label, value)
        return best


class NotIdealError(Exception):
    """Truncation refused: some conditional pair is not orthogonal."""

    def __init__(self, round_index: int, triple: FidelityTriple, tol: float):
        self.round_index = round_index
        self.triple = triple
        pair, value = triple.worst_pair()
        self.pair = pair
        self.fidelity = value
        super().__init__(
            f"round {round_index}: conditional fidelity {pair} = {value:.6g} "
            f"exceeds the orthogonality threshold {tol:g}")


@dataclass(frozen=True)
class TruncationStep:
    round_index: int
    sender: str
    triple: FidelityTriple


@dataclass(frozen=True)
class InductionVerdict:
    """The induction's verdict on a protocol, with its honest statistics.

    ``outcome_distribution`` is ``outcome_distribution(p)`` of the analysed
    protocol, read off the forward pass's psi_N instead of a second run of
    the rounds.
    """

    verdict: str                  # "contradiction" | "not_ideal"
    rounds: int
    steps: tuple
    mutual_information: float | None
    witness_round: int | None
    witness_fidelity: float | None
    witness_pair: str | None
    message: str
    outcome_distribution: dict


# ---------------------------------------------------------------------------
# honest execution


def run_rounds(p: CoinProtocol) -> PureState:
    return qcore.apply_circuit(p.partition.num_qubits, p.initial_alice,
                               p.initial_bob, *(rnd.ops for rnd in p.rounds))


def _round_states(p: CoinProtocol) -> list:
    """[psi_0, ..., psi_N]: the honest state after the preparations and k rounds.

    The gates go through ``qcore.apply_circuit`` one round per list, in
    ``run_rounds``'s order, and no fused block spans two rounds, so psi_k is
    bit-identical to ``run_rounds`` of the k-round truncation.  The list
    holds (N+1) * 2^n * 16 bytes.
    """
    states = [qcore.apply_circuit(p.partition.num_qubits,
                                  p.initial_alice, p.initial_bob)]
    for rnd in p.rounds:
        states.append(qcore.apply_circuit(states[-1], rnd.ops))
    return states


def outcome_distribution(p: CoinProtocol) -> dict:
    """Honest Born probabilities of each label, per actor."""
    return _distribution(p, run_rounds(p))


def _distribution(p: CoinProtocol, state: PureState) -> dict:
    """Born probabilities of ``p``'s outcome rules on its final honest ``state``."""
    return {
        actor: {label: rule.expectation(state) for label, rule in rules.items()}
        for actor, rules in p.outcome_rules.items()
    }


# ---------------------------------------------------------------------------
# last-round conditioning on coefficient matrices


def _last_sender(p: CoinProtocol) -> str:
    if not p.rounds:
        raise ValueError("protocol has no rounds; nothing to condition on")
    return p.rounds[-1].actor


def _conditionals(state: PureState, keep: tuple, rules: dict, space: tuple) -> dict:
    """{label: (p, X)} for each label the sender reads with p > PRESENCE_CUTOFF.

    X is (V^dagger x I) psi as a matrix with rows on ``keep``, the
    receiver's machine, so X X^dagger = p rho for rho the receiver's state
    conditioned on the label.  The channel still sits with the sender, so
    it lies among the columns.  ``rules`` maps labels to Projectors: a "0"
    or "1" it lacks is the zero rule, and an "invalid" of None is the
    orthogonal complement of the "0" and "1" rules on ``space``.  Each
    label's block is contracted on its own, so the probabilities of the
    three labels must sum to 1.
    """
    dim = 2 ** len(keep)
    blocks, picked = {}, {}
    for label in OUTCOME_LABELS:
        if label not in rules:
            continue
        rule = rules[label]
        qubits = space if rule is None else rule.qubits
        if qubits not in blocks:
            blocks[qubits] = qcore._split(state, keep, qubits)[2].reshape(
                dim, 2 ** len(qubits), -1)
        if rule is None:
            x = blocks[qubits]
            for other in ("0", "1"):
                if other in picked:
                    x = x - rules[other].isometry @ picked[other]
            picked[label] = x
        else:
            picked[label] = rule.isometry.conj().T @ blocks[qubits]
    probs = {label: float(np.vdot(x, x).real) for label, x in picked.items()}
    total = sum(probs.values())
    if abs(total - 1.0) > COMPLETENESS_TOL:
        raise InvariantViolation(
            f"outcome probabilities sum to {total!r}, not 1 within {COMPLETENESS_TOL}")
    return {label: (probs[label], x.reshape(dim, -1))
            for label, x in picked.items() if probs[label] > PRESENCE_CUTOFF}


def _coefficient_fidelity(m0: np.ndarray, m1: np.ndarray) -> float:
    """Fidelity of the unit-trace states m0 m0^dagger and m1 m1^dagger.

    ``m0`` and ``m1`` are coefficient matrices of two purifications, with
    rows on the system and any number of columns each; then F is the trace
    norm of m0^dagger m1 (Uhlmann's theorem), as on the cross-Gram of
    ``schmidt.UhlmannRotation``.  Rounding can push it past 1, so it is
    clamped there.
    """
    return min(1.0, float(np.sum(np.linalg.svd(m0.conj().T @ m1, compute_uv=False))))


def _condition(partition: Partition, sender: str, rules: dict, state: PureState,
               allow_mixed_invalid: bool):
    """Condition the receiver on the sender's outcome ``rules``.

    ``state`` is the honest state after the sender's round.  Returns
    (receiver machine, {label: (p, X, W^dagger, s)}, fidelity triple).  X
    is the label's coefficient matrix, cut to the receiver's dimension by a
    QR of X^dagger when it has more columns than rows: X X^dagger is
    unchanged, and so are X's exact zero rows.  Each present label takes
    one thin SVD, X = U diag(s) W^dagger, so s^2 / p are the eigenvalues
    of the conditional state, and each pairwise fidelity is Uhlmann's on
    the X / sqrt(p).
    """
    keep = partition.holding(other_actor(sender), sender)
    space = partition.holding(sender, other_actor(sender))
    factors = {}
    for label, (prob, x) in _conditionals(state, keep, rules, space).items():
        if x.shape[1] > x.shape[0]:
            x = np.linalg.qr(x.conj().T, mode="r").conj().T
        _, s, wh = np.linalg.svd(x, full_matrices=False)
        factors[label] = (prob, x, wh, s)
    if "invalid" in factors and not allow_mixed_invalid:
        prob, _, _, s = factors["invalid"]
        purity = float(np.sum((s ** 2 / prob) ** 2))
        if purity < 1.0 - PURITY_TOL:
            raise ValueError(
                f"the invalid outcome conditions the receiver on a mixed state "
                f"(purity {purity:.6g}); pass allow_mixed_invalid=True to drop "
                "the single-pure-state assumption")

    def pair(x, y):
        if x in factors and y in factors:
            (px, mx, _, _), (py, my, _, _) = factors[x], factors[y]
            return _coefficient_fidelity(mx / math.sqrt(px), my / math.sqrt(py))
        return None

    triple = FidelityTriple(
        f01=pair("0", "1"), f0inv=pair("0", "invalid"), f1inv=pair("1", "invalid"),
        present=tuple(factors))
    return keep, factors, triple


def last_round_fidelities(p: CoinProtocol, *, allow_mixed_invalid=False) -> FidelityTriple:
    """Pairwise fidelities of the receiver's sender-conditioned states."""
    sender = _last_sender(p)
    return _condition(p.partition, sender, p.outcome_rules[sender], run_rounds(p),
                      allow_mixed_invalid)[2]


def truncate_last_round(p: CoinProtocol, *, tol=IDEAL_TOL,
                        allow_mixed_invalid=False) -> CoinProtocol:
    """Delete the final round of an ideal protocol, preserving outcomes.

    The receiver's new rule discriminates the supports of their conditional
    states (everything else counts as invalid); the sender's rule is pulled
    back through the deleted round's unitary.  Both come back as checked
    Projectors.  Raises NotIdealError when any conditional pair has
    fidelity above ``tol``, and ValueError unless ``tol`` is a finite
    number in [0, 1) or when the receiver's supports overlap.
    """
    _check_tol(tol, "tol")
    state = run_rounds(p)
    sender = _last_sender(p)
    _, supports = _receiver_rules(p, p.num_rounds, p.outcome_rules[sender], state, tol,
                                  allow_mixed_invalid)
    keep = p.partition.holding(other_actor(sender), sender)
    rules = {label: supports[label] if label in supports
             else Projector(keep, np.zeros((2 ** len(keep), 0), dtype=complex))
             for label in ("0", "1")}
    # invalid spans the orthogonal complement of [V0 V1], whose columns are
    # orthonormal: the trailing left singular vectors
    stacked = np.hstack([rules["0"].isometry, rules["1"].isometry])
    invalid = np.linalg.svd(stacked)[0][:, stacked.shape[1]:]
    return replace(p, rounds=p.rounds[:-1],
                   outcome_rules={sender: _pulled_back_rules(p, sender),
                                  other_actor(sender): {
                                      **rules, "invalid": Projector(keep, invalid)}})


def _check_tol(tol, name: str):
    """Refuse an orthogonality threshold outside [0, 1) (nan included).

    At 1 or above a non-orthogonal round would truncate into supports that
    overlap, which is no projector; below 0 no round could truncate.
    """
    if not 0.0 <= tol < 1.0:
        raise ValueError(f"{name} must be a number in [0, 1), got {tol!r}")


def _receiver_rules(p: CoinProtocol, k: int, rules: dict, state: PureState, tol,
                    allow_mixed_invalid):
    """(fidelity triple, receiver's rules) for deleting round ``k`` of ``p``.

    ``rules`` are the rules of round k's sender in the k-round truncation
    of ``p``, and ``state`` is the honest state after round k.  The
    receiver's new rules, on their machine, are the supports of their
    sender-conditioned states: for "0" and "1" the Projector of the left
    singular vectors with s^2 / p > SUPPORT_CUTOFF, none for a label that
    never occurs (the zero rule); invalid is the complement of both (None).
    Each Projector takes its V as built, with only the isometry check.
    Raises ValueError when the two supports overlap, which a loose ``tol``
    allows: then some singular value of [V0 V1] is not 1.
    """
    sender = p.rounds[k - 1].actor
    keep, factors, triple = _condition(p.partition, sender, rules, state, allow_mixed_invalid)
    if triple.max_fidelity() > tol:
        raise NotIdealError(k, triple, tol)

    supports = {}
    for label in ("0", "1"):
        if label in factors:
            # u = X w / sigma, not LAPACK's U: the product keeps X's exact
            # zero rows, so orthogonal supports give fidelities of exactly 0
            prob, x, wh, s = factors[label]
            kept = s ** 2 > SUPPORT_CUTOFF * prob
            supports[label] = Projector._of(keep, x @ (wh[kept].conj().T / s[kept]))
    if len(supports) == 2:
        stacked = np.hstack([supports["0"].isometry, supports["1"].isometry])
        singular = np.linalg.svd(stacked, compute_uv=False)
        if np.max(np.abs(singular - 1.0)) > PROJECTOR_TOL:
            cosine = float(np.max(np.abs(singular ** 2 - 1.0)))
            raise ValueError(
                f"round {k}: the receiver's supports overlap (largest principal cosine "
                f"{cosine:.6g}); the orthogonality threshold {tol:g} (--ideal-tol) is too "
                "loose to truncate this round")
    return triple, {**supports, "invalid": None}


def _pulled_back_rules(p: CoinProtocol, sender: str) -> dict:
    """The last sender's rules conjugated by their deleted round's unitary.

    They act on the sender's machine and the channel, which the sender
    holds again once the round is gone: U^dagger (V x I) is already an
    isometry.
    """
    sender_space = p.partition.holding(sender, sender)
    unitary = qcore._circuit_matrix(p.rounds[-1].ops, sender_space)
    rules = p.outcome_rules[sender]
    return {label: Projector(sender_space, unitary.conj().T @ rules[label].lifted(sender_space))
            for label in OUTCOME_LABELS}


def _channel_holder(p: CoinProtocol) -> str:
    channel = p.partition.channel_qubits
    for actor in ACTORS:
        for rule in p.outcome_rules[actor].values():
            if channel & set(rule.qubits):
                return actor
    return "alice"


def induction_report(p: CoinProtocol, *, tol=IDEAL_TOL,
                     allow_mixed_invalid=False) -> InductionVerdict:
    """Run the backward induction to its verdict.

    Either every round truncates away and the zero-round protocol exposes
    the no-communication contradiction (a product state carries no mutual
    information, so requirement 3's agreed random outcome is unreachable),
    or some round refuses to truncate and the protocol is certified not
    ideal with the witness fidelity.

    One forward pass applies each gate once and keeps every honest round
    state psi_0 ... psi_N; the verdict's outcome distribution is read off
    psi_N, the step that truncates round k pops psi_k and drops it when
    done, and psi_0 gives the zero-round mutual information.
    Each step conditions on isometries: the last sender's document rules
    come from the parser as such, and each step hands its receiver's
    supports, from one thin SVD per present label, to the next step as
    that step's sender rules (see the module docstring for the kernel and
    the checks it keeps at every step).
    Truncation rewrites only outcome rules, never the state before the
    deleted round, so gate applications are linear in N.  The cost is
    memory: up to (N+1) * 2^n * 16 bytes of states at once.

    The rounds must alternate actors, as every parsed coin protocol's do.
    Then the receiver of round k+1 is the sender of round k, so the rules
    that step k+1 builds for its receiver are the ones step k conditions
    on, and the sender's pulled-back rules would be replaced unread.  The
    induction therefore builds neither a truncated protocol nor a
    pulled-back rule; ``truncate_last_round`` still builds both.  The
    channel of the zero-round protocol sits with round 1's sender.
    Raises ValueError for rounds that repeat an actor, unless ``tol`` is a
    finite number in [0, 1), and when a ``tol`` above some round's
    fidelity lets that round's supports overlap.
    """
    _check_tol(tol, "tol")
    for k, (before, after) in enumerate(zip(p.rounds, p.rounds[1:]), start=2):
        if before.actor == after.actor:
            raise ValueError(f"rounds {k - 1} and {k} are both {after.actor}'s; the "
                             "induction needs rounds that alternate actors")
    states = _round_states(p)
    distribution = _distribution(p, states[-1])
    steps = []
    rules = p.outcome_rules[p.rounds[-1].actor] if p.rounds else None
    for k in range(p.num_rounds, 0, -1):
        try:
            triple, rules = _receiver_rules(p, k, rules, states.pop(), tol,
                                            allow_mixed_invalid)
        except NotIdealError as exc:
            return InductionVerdict(
                verdict="not_ideal", rounds=p.num_rounds, steps=tuple(steps),
                mutual_information=None, witness_round=exc.round_index,
                witness_fidelity=exc.fidelity, witness_pair=exc.pair,
                message=f"not ideal: {exc}", outcome_distribution=distribution)
        steps.append(TruncationStep(round_index=k, sender=p.rounds[k - 1].actor,
                                    triple=triple))

    state = states.pop()
    holder = p.rounds[0].actor if p.rounds else _channel_holder(p)
    mi = qcore.mutual_information(state, p.partition.holding("alice", holder))
    shown = "0" if mi <= MI_TOL else f"{mi:.3e}"
    return InductionVerdict(
        verdict="contradiction", rounds=p.num_rounds, steps=tuple(steps),
        mutual_information=mi, witness_round=None, witness_fidelity=None,
        witness_pair=None,
        message=f"contradiction: mutual information {shown} at N=0",
        outcome_distribution=distribution)


# ---------------------------------------------------------------------------
# the N * epsilon >= 1 bound


def _as_fraction(value, what: str) -> Fraction:
    """A ``numbers.Rational`` exactly, any other finite ``numbers.Real`` snapped as
    a float, or a rational literal; numpy's numbers included, bools refused."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be a number, not a bool")
    if isinstance(value, numbers.Rational):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, numbers.Real):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite")
        return Fraction(value).limit_denominator(FLOAT_DENOMINATOR_CAP)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} is not a rational literal: {value!r}") from None
    raise TypeError(f"{what} must be a number, Fraction, or rational string")


def min_rounds(epsilon) -> int:
    """ceil(1/epsilon): rounds needed when information moves <= epsilon per round.

    Floats are snapped to the nearest fraction with denominator at most
    10^12, so min_rounds(0.1) is 10, not the off-by-one a naive 1/float
    would give.
    """
    eps = _as_fraction(epsilon, "epsilon")
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    return math.ceil(1 / eps)


@dataclass(frozen=True)
class WalkResult:
    ok: bool
    first_violation: int | None
    reason: str | None


def validate_walk(trajectory, epsilon) -> WalkResult:
    """Check an information walk: gap <= epsilon throughout, endpoint (1,1).

    ``trajectory`` is a sequence of (alice, bob) information pairs starting
    at (0, 0); values outside [0, 1] and a wrong start raise, anything else
    is a verdict.  Comparisons are exact rational arithmetic.
    """
    eps = _as_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    pairs = []
    for i, pair in enumerate(trajectory):
        try:
            a_raw, b_raw = pair
        except (TypeError, ValueError):
            raise ValueError(f"trajectory entry {i} is not a pair") from None
        a = _as_fraction(a_raw, f"trajectory[{i}][0]")
        b = _as_fraction(b_raw, f"trajectory[{i}][1]")
        if not (0 <= a <= 1 and 0 <= b <= 1):
            raise ValueError(f"trajectory entry {i} leaves [0, 1]")
        pairs.append((a, b))
    if not pairs:
        raise ValueError("trajectory is empty")
    if pairs[0] != (Fraction(0), Fraction(0)):
        raise ValueError("trajectory must start at (0, 0)")
    for i, (a, b) in enumerate(pairs):
        if abs(a - b) > eps:
            return WalkResult(
                ok=False, first_violation=i,
                reason=f"information gap {float(abs(a - b)):.6g} exceeds epsilon "
                       f"at step {i}")
    if pairs[-1] != (Fraction(1), Fraction(1)):
        return WalkResult(
            ok=False, first_violation=len(pairs) - 1,
            reason="endpoint is not (1, 1)")
    return WalkResult(ok=True, first_violation=None, reason=None)

