"""EPR cheating against the shipped and parameterized commitments."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from qcheat import cli, fidelity, protocol, qcore, schmidt
from qcheat.attack import AttackReport, attack_sweep, epr_attack, sweep_parameter
from qcheat.document import (
    ProtocolError,
    load_protocol,
    parse_protocol,
    purify_protocol,
    resolve_document,
)
from qcheat.protocol import (
    TRACE_ROUTE_MAX_QUBITS,
    alice_side,
    bob_holding,
    commit_custody,
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


def cli_report(tmp_path, command, doc, *options) -> dict:
    path, out = tmp_path / "doc.yaml", tmp_path / "report.json"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main([command, "--protocol", str(path), "--out", str(out), *options]) == 0
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

    def wrong_polar_factor(rotation):
        return rotation._factors.right @ rotation._factors.left

    monkeypatch.setattr(schmidt.UhlmannRotation, "polar_factor", wrong_polar_factor)
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


# --- the Schmidt support: the rotation on a sketched basis --------------------

def full_gram_attack(p, custody) -> dict:
    """epr_attack's figures from the full 2^|A|-wide cross-Gram: F from its
    SVD on the Gram route (trace route otherwise), U = left @ right applied
    to the register by ``apply_unitary``."""
    states = [run_commit(p, b) for b in (0, 1)]
    a_side, keep = alice_side(p, custody), bob_holding(p, custody)
    _, _, m0 = qcore._split(states[0], a_side)
    _, _, m1 = qcore._split(states[1], a_side)
    left, singular, right = np.linalg.svd(m1 @ m0.conj().T)
    if len(keep) > TRACE_ROUTE_MAX_QUBITS and len(a_side) <= len(keep):
        fid = float(np.sum(singular))
    else:
        fid = fidelity.fidelity_trace(*(partial_trace(s, keep) for s in states))
    cheat = apply_unitary(states[0], left @ right, a_side)
    return {"delta": protocol._defect(fid), "fidelity": fid,
            "achieved_overlap": float(abs(np.vdot(states[1].amplitudes, cheat.amplitudes))),
            "cheat_accept": protocol.run_open(p, cheat, 1)}


def report_figures(rep) -> dict:
    return {key: getattr(rep, key) for key in ("delta", "fidelity", "achieved_overlap",
                                              "cheat_accept")}


def sketch_width(p) -> int:
    """Columns of the sketch [M0 Omega, M1 Omega] for ``p``'s commit states."""
    rank_qubits = len(p.partition.channel_qubits) * len(p.commit_rounds)
    return 2 * (2 ** rank_qubits + schmidt.SKETCH_OVERSAMPLE)


def svd_widths(monkeypatch) -> list:
    """The wider dimension of every matrix passed to np.linalg.svd."""
    widths = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        widths.append(max(np.shape(a)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return widths


@pytest.mark.parametrize("custody", ["alice", "bob"])
def test_ladder_attack_runs_on_the_schmidt_support(perfbench_gen, tmp_path, monkeypatch,
                                                   custody):
    for name, doc in perfbench_gen.ladder_documents(1, sizes=(13, 14, 15, 16)).items():
        p = purify_protocol(parse_protocol(doc))
        assert 2 ** len(alice_side(p, custody)) > sketch_width(p), name
        for command in ("attack", "simulate"):
            widths = svd_widths(monkeypatch)
            cli_report(tmp_path, command, doc, "--channel-custody", custody)
            monkeypatch.undo()
            assert len(widths) == 1 if command == "attack" else len(widths) <= 1, name
            assert all(width <= sketch_width(p) for width in widths), (name, command)
        want = full_gram_attack(p, custody)
        got = report_figures(epr_attack(p, custody))
        assert all(abs(got[key] - want[key]) <= 1e-12 for key in want), (name, got, want)


@pytest.mark.parametrize("name", ["bell-bc", "bb84-bc", "leaky-bc(0.5)", "leaky-bc(1.2)"])
def test_shipped_attacks_equal_the_full_gram_figures(name):
    # the shipped sides are too small for a narrower basis, so the shipped
    # reports keep their bytes; with the other custody bb84-bc's 4-qubit
    # side does get one, and agrees to rounding
    p = purify_protocol(load_protocol(name))
    custody = commit_custody(p)
    assert report_figures(epr_attack(p, custody)) == full_gram_attack(p, custody)
    other = "alice" if custody == "bob" else "bob"
    got, want = report_figures(epr_attack(p, other)), full_gram_attack(p, other)
    assert all(abs(got[key] - want[key]) <= 1e-12 for key in want), (got, want)


def test_full_schmidt_rank_falls_back_to_the_full_gram(monkeypatch):
    # two Haar-random 13-qubit states have full Schmidt rank 64 on a 6-qubit
    # side: a rank bound of 2^3 misses it, so the residual check refuses the
    # basis and the result is the full cross-Gram's, bit for bit
    rng = np.random.default_rng(13)
    s0, s1 = (qcore.PureState(v / np.linalg.norm(v)) for v in
              rng.standard_normal((2, 2 ** 13)) + 1j * rng.standard_normal((2, 2 ** 13)))
    a_side = (1, 3, 4, 7, 9, 12)
    unitary, fid = uhlmann_unitary(s0, s1, a_side)
    widths = svd_widths(monkeypatch)
    rotation = schmidt.UhlmannRotation(s0, s1, a_side, 3)
    assert rotation.fidelity == fid
    assert np.array_equal(rotation.cheat_state().amplitudes,
                          apply_unitary(s0, unitary, a_side).amplitudes)
    assert widths == [2 ** len(a_side)]


def test_full_side_cheat_state_goes_through_the_kernel(monkeypatch):
    # W is contracted into the register by qcore._contract, as apply_unitary's
    # matrix is, not by a product of its own
    rng = np.random.default_rng(29)
    s0, s1 = (qcore.PureState(v / np.linalg.norm(v)) for v in
              rng.standard_normal((2, 2 ** 9)) + 1j * rng.standard_normal((2, 2 ** 9)))
    a_side = (0, 4, 5, 8)
    rotation = schmidt.UhlmannRotation(s0, s1, a_side)
    counts = count_calls(monkeypatch, {"_contract": qcore._contract})
    cheat = rotation.cheat_state()
    assert counts == {"_contract": 1}
    monkeypatch.undo()
    assert np.array_equal(cheat.amplitudes,
                          apply_unitary(s0, rotation.polar_factor(), a_side).amplitudes)


def test_ideal_cheating_unitary_cuts_the_register_only_to_trace_and_rotate(monkeypatch):
    # the qubit lists come from qcore._cut with no copy of the register:
    # outside the rotation, the only cuts are the two partial traces'
    rng = np.random.default_rng(31)
    v = rng.standard_normal(2 ** 6) + 1j * rng.standard_normal(2 ** 6)
    s0 = qcore.PureState(v / np.linalg.norm(v))
    a_side = [4, 1]
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s1 = apply_unitary(s0, np.linalg.qr(g)[0], a_side)
    counts = count_calls(monkeypatch, {"_split": qcore._split,
                                       "partial_trace": qcore.partial_trace})
    inside = []

    def rotation(*args, _original=schmidt.uhlmann_unitary):
        before = counts["_split"]
        result = _original(*args)
        inside.append(counts["_split"] - before)
        return result

    monkeypatch.setattr(schmidt, "uhlmann_unitary", rotation)
    unitary = schmidt.cheating_unitary_ideal(s0, s1, a_side)
    assert inside == [2]
    assert counts == {"_split": 2 + 2, "partial_trace": 2}
    monkeypatch.undo()
    moved = apply_unitary(s0, unitary, (1, 4))
    assert abs(abs(np.vdot(s1.amplitudes, moved.amplitudes)) - 1.0) <= 1e-10


def test_a_basis_missing_a_column_falls_back(perfbench_gen, tmp_path, monkeypatch):
    # a basis without its first column misses part of M0's range: the
    # residual check must refuse it, so delta is the full cross-Gram's
    doc = perfbench_gen.ladder_documents(1, sizes=(13,))["ladder-n13-verify"]
    p = purify_protocol(parse_protocol(doc))
    real_qr = np.linalg.qr

    def short_qr(a, *args, **kwargs):
        q, r = real_qr(a, *args, **kwargs)
        return q[:, 1:], r[1:]

    monkeypatch.setattr(np.linalg, "qr", short_qr)
    widths = svd_widths(monkeypatch)
    reported = cli_report(tmp_path, "attack", doc)
    assert widths == [2 ** len(alice_side(p, commit_custody(p)))]
    want = full_gram_attack(p, commit_custody(p))
    assert reported["delta"] == want["delta"]
    assert reported["fidelity"] == want["fidelity"]


def test_simulate_forms_no_rotation(perfbench_gen, tmp_path, monkeypatch):
    counts = {"polar_factor": 0, "cheat_state": 0}
    for attr in counts:
        def counted(self, _attr=attr, _real=getattr(schmidt.UhlmannRotation, attr)):
            counts[_attr] += 1
            return _real(self)
        monkeypatch.setattr(schmidt.UhlmannRotation, attr, counted)
    for name, doc in perfbench_gen.ladder_documents(1, sizes=(13, 14)).items():
        cli_report(tmp_path, "simulate", doc)
        assert counts == {"polar_factor": 0, "cheat_state": 0}, name
    cli_report(tmp_path, "attack", doc)
    assert counts == {"polar_factor": 1, "cheat_state": 1}


_LADDER_FIGURES = """
import json, sys, gen
from qcheat import cli
out = sys.argv[1]
figures = {}
for name, doc in gen.ladder_documents(1, sizes=(13, 14, 15, 16)).items():
    path = out + ".yaml"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.to_yaml(doc))
    for command in ("attack", "simulate"):
        assert cli.main([command, "--protocol", path, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        figures[f"{command}:{name}"] = [report["delta"], report.get("fidelity")]
print(json.dumps(figures))
"""


def test_ladder_delta_does_not_depend_on_blas_threads(tmp_path):
    # delta and F only: the acceptance figures and the overlap still come
    # from whole-register vdot reductions, which OpenBLAS splits by thread
    root = Path(__file__).resolve().parent.parent
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            str(root / d) for d in ("src", "perfbench")),
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c", _LADDER_FIGURES, str(tmp_path / f"report-{threads}")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs[threads] = json.loads(done.stdout)
    assert len(runs["1"]) == 16
    assert runs["1"] == runs["2"]
