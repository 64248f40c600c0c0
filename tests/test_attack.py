"""EPR cheating against the shipped and parameterized commitments."""

import json
import math
import sys

import numpy as np
import pytest
import yaml

from qcheat import cli, fidelity, protocol, qcore, schmidt
from qcheat.attack import AttackReport, attack_sweep, epr_attack, sweep_parameter
from qcheat.protocol import (
    TRACE_ROUTE_MAX_QUBITS,
    ProtocolError,
    alice_side,
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


def test_report_validates_the_cheat_bound():
    # overlap 0.8: the cheat state's acceptance stays within 0.6 of the honest one
    def report(cheat):
        return AttackReport("x", "bob", delta=0.2, fidelity=0.8, achieved_overlap=0.8,
                            honest_accept=(1.0, 1.0), cheat_accept=cheat)

    assert report(0.4).cheat_accept == 0.4
    with pytest.raises(InvariantViolation, match="trace-distance bound"):
        report(0.4 - 2e-9)


# --- sweeps ------------------------------------------------------------------

def test_sweep_parameter_inference():
    p = load_protocol("leaky-bc")
    assert sweep_parameter(p) == "theta"
    assert sweep_parameter(p, "theta") == "theta"


def test_sweep_parameter_rejects_unknown_name():
    p = load_protocol("leaky-bc")
    with pytest.raises(ProtocolError, match="phi"):
        sweep_parameter(p, "phi")


def test_sweep_parameter_needs_exactly_one_candidate():
    p = load_protocol("bell-bc")
    with pytest.raises(ProtocolError):
        sweep_parameter(p)


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


# --- the Gram route: F from the Alice-side cross-Gram -------------------------

def route_documents(gen) -> dict:
    """Ladder rungs n=13..15 and seeded random registers, Alice's side no larger."""
    docs = dict(gen.ladder_documents(1, sizes=(13, 14, 15)))
    rng = np.random.default_rng(2024)
    for alice, bob in ((1, 4), (2, 5), (3, 4), (5, 4), (4, 6)):
        name = f"random-a{alice}-b{bob}"
        docs[name] = gen.ladder_document(rng, name, alice, bob, verify=alice % 2 == 1)
    return docs


def cli_report(tmp_path, command, doc) -> dict:
    path, out = tmp_path / "doc.yaml", tmp_path / "report.json"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main([command, "--protocol", str(path), "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_gram_route_agrees_with_the_trace_route(perfbench_gen, tmp_path):
    for name, doc in route_documents(perfbench_gen).items():
        p = purify_protocol(parse_protocol(doc))
        custody = commit_custody(p)
        keep = bob_holding(p, custody)
        assert len(keep) > TRACE_ROUTE_MAX_QUBITS, name
        assert len(alice_side(p, custody)) <= len(keep), name
        states = [run_commit(p, b) for b in (0, 1)]
        want = fidelity.fidelity_trace(*(partial_trace(s, keep) for s in states))
        rep = epr_attack(p)
        assert abs(rep.fidelity - want) <= 1e-10, name
        assert abs(rep.achieved_overlap - want) <= 1e-10, name
        assert abs(rep.delta - (1.0 - want)) <= 1e-10, name
        attacked = cli_report(tmp_path, "attack", doc)
        simulated = cli_report(tmp_path, "simulate", doc)
        assert attacked["delta"] == simulated["delta"] == rep.delta, name


def test_gram_route_overlap_check_is_not_a_tautology(perfbench_gen, monkeypatch):
    doc = perfbench_gen.ladder_documents(1, sizes=(13,))["ladder-n13-verify"]

    def wrong_rotation(state0, state1, a_side):
        _, _, m0 = qcore._split(state0, a_side)
        _, _, m1 = qcore._split(state1, a_side)
        left, singular, right = np.linalg.svd(m1 @ m0.conj().T)
        return right @ left, singular

    monkeypatch.setattr(schmidt, "_polar_rotation", wrong_rotation)
    with pytest.raises(InvariantViolation, match="overlap"):
        epr_attack(purify_protocol(parse_protocol(doc)))


def count_calls(monkeypatch, functions: dict) -> dict:
    """Count calls of each function wherever numpy.linalg or qcheat binds it."""
    counts = dict.fromkeys(functions, 0)
    owners = [np.linalg] + [module for key, module in sorted(sys.modules.items())
                            if key == "qcheat" or key.startswith("qcheat.")]
    for label, original in functions.items():
        def wrapper(*args, _label=label, _original=original, **kwargs):
            counts[_label] += 1
            return _original(*args, **kwargs)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    monkeypatch.setattr(owner, attr, wrapper)
    return counts


def kernel_counts(monkeypatch) -> dict:
    return count_calls(monkeypatch, {
        "partial_trace": qcore.partial_trace,
        "fidelity_trace": fidelity.fidelity_trace,
        "eigh": np.linalg.eigh,
        "eigvalsh": np.linalg.eigvalsh,
        "svd": np.linalg.svd,
    })


@pytest.mark.parametrize("command", ["attack", "simulate"])
def test_gram_route_takes_one_svd_and_no_bob_side_kernel(
        perfbench_gen, tmp_path, monkeypatch, command):
    for name, doc in perfbench_gen.ladder_documents(1, sizes=(13, 14)).items():
        counts = kernel_counts(monkeypatch)
        cli_report(tmp_path, command, doc)
        assert counts == {"partial_trace": 0, "fidelity_trace": 0, "eigh": 0,
                          "eigvalsh": 0, "svd": 1}, name
        monkeypatch.undo()


@pytest.mark.parametrize("command", ["attack", "simulate"])
@pytest.mark.parametrize("name", ["bell-bc", "bb84-bc", "leaky-bc(0.5)"])
def test_shipped_documents_keep_the_trace_route(monkeypatch, tmp_path, command, name):
    counts = kernel_counts(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main([command, "--protocol", name, "--out", str(out)]) == 0
    assert counts["fidelity_trace"] == 1
    assert counts["partial_trace"] == 2
    assert counts["svd"] == (1 if command == "attack" else 0)


@pytest.mark.parametrize("alice,bob", [(7, 4), (8, 5)])
def test_larger_alice_side_keeps_the_trace_route(
        perfbench_gen, tmp_path, monkeypatch, alice, bob):
    doc = perfbench_gen.ladder_document(
        np.random.default_rng(alice), "alice-larger", alice, bob, True)
    p = purify_protocol(parse_protocol(doc))
    assert len(alice_side(p, commit_custody(p))) > len(bob_holding(p, commit_custody(p)))
    reports = {}
    for command, svd in (("attack", 1), ("simulate", 0)):
        counts = kernel_counts(monkeypatch)
        reports[command] = cli_report(tmp_path, command, doc)
        assert counts["fidelity_trace"] == 1 and counts["svd"] == svd, command
        monkeypatch.undo()
    assert reports["attack"]["delta"] == reports["simulate"]["delta"]


def test_alice_side_over_the_cap_is_simulated_but_not_attacked(perfbench_gen, tmp_path):
    doc = perfbench_gen.ladder_document(
        np.random.default_rng(7), "alice-over-cap", qcore.MAX_SIDE_QUBITS + 1, 4, True)
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(["simulate", "--protocol", str(path), "--out", str(out)]) == 0
    assert cli.main(["attack", "--protocol", str(path), "--out", str(out)]) == 2


def test_bob_side_over_the_cap_takes_the_gram_route(perfbench_gen, tmp_path):
    # 1 + 12 + 1 qubits, no verify key, Alice sends the last commit round:
    # Bob holds 13 qubits, and the Gram route forms only 2 x 2 matrices
    doc = perfbench_gen.ladder_document(np.random.default_rng(12), "bob-over-cap", 1,
                                        qcore.MAX_SIDE_QUBITS, False)
    assert "verify" not in doc and doc["commit_rounds"][-1]["actor"] == "alice"
    attacked = cli_report(tmp_path, "attack", doc)
    simulated = cli_report(tmp_path, "simulate", doc)
    assert attacked["delta"] == simulated["delta"]
    # Alice's qubit 0 is the most significant bit: each commit state's rows
    # split off as a plain reshape, independent of qcore's split
    p = parse_protocol(doc)
    m0, m1 = (run_commit(p, b).amplitudes.reshape(2, -1) for b in (0, 1))
    want = np.linalg.svd(m1 @ m0.conj().T, compute_uv=False).sum()
    assert abs(attacked["fidelity"] - want) <= 1e-12
    path = tmp_path / "doc.yaml"
    assert cli.main(["fidelity", "--protocol", str(path), "--out", str(tmp_path / "f")]) == 2
