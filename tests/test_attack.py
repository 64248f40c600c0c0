"""EPR cheating against the shipped and parameterized commitments."""

import math

import numpy as np
import pytest

from qcheat import protocol
from qcheat.attack import AttackReport, attack_sweep, epr_attack, sweep_parameter
from qcheat.protocol import (
    ProtocolError,
    bob_holding,
    commit_custody,
    load_protocol,
    parse_protocol,
    purify_protocol,
    resolve_document,
    run_commit,
)
from qcheat.qcore import InvariantViolation, apply_unitary, partial_trace
from qcheat.schmidt import uhlmann_unitary


def leaky(theta):
    doc, ov = resolve_document(f"leaky-bc({theta})")
    return parse_protocol(doc, param_overrides=ov)


def test_bell_bc_attack_is_perfect():
    rep = epr_attack(load_protocol("bell-bc"))
    assert rep.delta <= 1e-12
    assert rep.cheat_accept == pytest.approx(1.0, abs=1e-9)
    assert rep.honest_accept == (pytest.approx(1.0), pytest.approx(1.0))
    assert rep.achieved_overlap == pytest.approx(1.0, abs=1e-9)
    assert rep.channel_custody == "bob"


def test_attack_computes_each_honest_commit_state_once(monkeypatch):
    calls = []
    real = protocol.run_commit
    monkeypatch.setattr(protocol, "run_commit", lambda p, b: calls.append(b) or real(p, b))
    epr_attack(load_protocol("leaky-bc(0.5)"))
    assert calls == [0, 1]


def test_bb84_bc_attack_after_purification():
    p = purify_protocol(load_protocol("bb84-bc"))
    rep = epr_attack(p)
    assert rep.delta <= 1e-12
    assert rep.cheat_accept == pytest.approx(1.0, abs=1e-9)


def test_attack_requires_purified_protocol():
    with pytest.raises(ValueError, match="purify_protocol"):
        epr_attack(load_protocol("bb84-bc"))


def test_custody_override_changes_the_acting_side():
    p = load_protocol("bell-bc")
    for custody in ("alice", "bob"):
        rep = epr_attack(p, custody)
        assert rep.channel_custody == custody
        assert rep.cheat_accept == pytest.approx(1.0, abs=1e-9)


def test_leaky_family_tracks_the_angle():
    # concealment decays as cos(theta); the attack saturates it exactly
    cheats = []
    for theta in np.linspace(0.0, math.pi / 2, 7):
        rep = epr_attack(leaky(theta))
        assert rep.fidelity == pytest.approx(math.cos(theta), abs=1e-8)
        assert rep.achieved_overlap == pytest.approx(math.cos(theta), abs=1e-8)
        assert rep.cheat_accept == pytest.approx(math.cos(theta) ** 2, abs=1e-8)
        assert rep.honest_accept == (pytest.approx(1.0), pytest.approx(1.0))
        cheats.append(rep.cheat_accept)
    assert all(a >= b - 1e-12 for a, b in zip(cheats, cheats[1:]))


def test_attack_leaves_bob_reduction_untouched():
    for name in ("bell-bc", "leaky-bc"):
        p = load_protocol(name)
        custody = commit_custody(p)
        keep = bob_holding(p, custody)
        state0 = run_commit(p, 0)
        state1 = run_commit(p, 1)
        unitary, _ = uhlmann_unitary(
            state0, state1, tuple(sorted(set(range(p.partition.num_qubits)) - set(keep))))
        before = partial_trace(state0, keep).entries
        after = partial_trace(
            apply_unitary(state0, unitary,
                          tuple(sorted(set(range(p.partition.num_qubits)) - set(keep)))),
            keep).entries
        assert np.max(np.abs(after - before)) <= 1e-10


def test_report_validates_probabilities():
    with pytest.raises(InvariantViolation, match=r"outside \[0, 1\]"):
        AttackReport("x", "bob", delta=0.0, fidelity=1.0, achieved_overlap=1.0,
                     honest_accept=(1.0, 1.3), cheat_accept=1.0)


def test_report_validates_overlap_identity():
    # achieved overlap must witness 1 - delta
    with pytest.raises(InvariantViolation, match="overlap"):
        AttackReport("x", "bob", delta=0.5, fidelity=0.5, achieved_overlap=0.9,
                     honest_accept=(1.0, 1.0), cheat_accept=0.4)


# --- sweeps ------------------------------------------------------------------

def test_sweep_parameter_inference():
    doc, _ = resolve_document("leaky-bc")
    assert sweep_parameter(doc) == "theta"
    assert sweep_parameter(doc, "theta") == "theta"


def test_sweep_parameter_rejects_unknown_name():
    doc, _ = resolve_document("leaky-bc")
    with pytest.raises(ProtocolError, match="phi"):
        sweep_parameter(doc, "phi")


def test_sweep_parameter_needs_exactly_one_candidate():
    doc, _ = resolve_document("bell-bc")
    with pytest.raises(ProtocolError):
        sweep_parameter(doc)


def test_attack_sweep_over_the_leaky_family():
    points = attack_sweep("leaky-bc", [0.0, 0.5, 1.0])
    assert [pt.value for pt in points] == [0.0, 0.5, 1.0]
    for pt in points:
        assert pt.param == "theta" and pt.error is None
        assert pt.report.fidelity == pytest.approx(math.cos(pt.value), abs=1e-8)


def test_attack_sweep_records_errors_in_row():
    points = attack_sweep("leaky-bc", [0.3, float("nan")])
    assert points[0].error is None
    assert points[1].report is None and points[1].error


def test_attack_sweep_accepts_a_document_mapping():
    doc, _ = resolve_document("leaky-bc")
    points = attack_sweep(doc, [0.25])
    assert points[0].report.cheat_accept == pytest.approx(math.cos(0.25) ** 2, abs=1e-8)
