"""Coin-toss induction: conditioning, truncation, and the round bound."""

import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qcheat import cli, cointoss, fidelity, qcore
from qcheat.cointoss import (
    FidelityTriple,
    NotIdealError,
    induction_report,
    last_round_fidelities,
    min_rounds,
    outcome_distribution,
    run_rounds,
    truncate_last_round,
    validate_walk,
)
from qcheat.document import (
    COMPLETENESS_TOL,
    PROJECTOR_TOL,
    MeasureOp,
    Projector,
    ProtocolError,
    coin_to_document,
    document_to_yaml,
    load_coin_protocol,
    parse_coin_protocol,
)
from qcheat.qcore import InvariantViolation
from test_attack import count_calls


def mixed_invalid_doc():
    """Invalid outcome whose receiver conditional is maximally mixed.

    Alice's first qubit is copied to bob through the channel, her second
    stays uniform, so conditioning on the cross terms mixes bob's side.
    """
    return {
        "name": "mixed",
        "kind": "coin-toss",
        "qubits": {"alice": 2, "bob": 1, "channel": 1},
        "rounds": [
            {"actor": "alice", "ops": [
                {"gate": "H", "targets": [0]},
                {"gate": "CX", "targets": [0, 3]},
            ]},
            {"actor": "bob", "ops": [{"gate": "CX", "targets": [3, 2]}]},
            {"actor": "alice", "ops": [{"gate": "H", "targets": [1]}]},
        ],
        "outcomes": {
            "alice": {
                "0": {"qubits": [0, 1], "accept_states": ["00"]},
                "1": {"qubits": [0, 1], "accept_states": ["11"]},
                "invalid": {"qubits": [0, 1], "accept_states": ["01", "10"]},
            },
            "bob": {
                "0": {"qubits": [2], "accept_states": ["0"]},
                "1": {"qubits": [2], "accept_states": ["1"]},
                "invalid": {"qubits": [2], "zero": True},
            },
        },
    }


# --- parsing and validation ---------------------------------------------

def test_ideal_ct_shape():
    p = load_coin_protocol("ideal-ct")
    assert p.declared_counts() == {"alice": 1, "bob": 1, "channel": 1}
    assert p.num_rounds == 4
    assert [r.actor for r in p.rounds] == ["alice", "bob", "alice", "bob"]


def test_guess_ct_shape():
    p = load_coin_protocol("guess-ct")
    assert p.declared_counts() == {"alice": 2, "bob": 2, "channel": 1}
    assert p.num_rounds == 4


def test_commitment_document_directed_to_other_parser():
    doc = mixed_invalid_doc()
    del doc["kind"]
    with pytest.raises(ProtocolError, match="parse_protocol"):
        parse_coin_protocol(doc)
    # a full commitment document trips the key check even earlier
    with pytest.raises(ProtocolError):
        load_coin_protocol("bell-bc")


def test_coin_rounds_must_alternate():
    doc = mixed_invalid_doc()
    doc["rounds"] = doc["rounds"] + [{
        "actor": "alice", "ops": [{"gate": "Z", "targets": [0]}]}]
    with pytest.raises(ProtocolError, match="alternate"):
        parse_coin_protocol(doc)


def test_missing_outcome_label():
    doc = mixed_invalid_doc()
    del doc["outcomes"]["bob"]["invalid"]
    with pytest.raises(ProtocolError, match="missing outcome label 'invalid'"):
        parse_coin_protocol(doc)


def test_unknown_outcome_label():
    doc = mixed_invalid_doc()
    doc["outcomes"]["bob"]["maybe"] = {"qubits": [2], "zero": True}
    with pytest.raises(ProtocolError, match="0, 1 or invalid"):
        parse_coin_protocol(doc)


def test_unquoted_integer_labels_normalize():
    doc = mixed_invalid_doc()
    section = doc["outcomes"]["bob"]
    section[0] = section.pop("0")
    section[1] = section.pop("1")
    p = parse_coin_protocol(doc)
    assert set(p.outcome_rules["bob"]) == {"0", "1", "invalid"}


def test_rule_outside_holding_rejected():
    doc = mixed_invalid_doc()
    # alice is the last sender, so she cannot read the channel qubit 3
    doc["outcomes"]["alice"]["0"] = {"qubits": [3], "accept_states": ["0"]}
    with pytest.raises(ProtocolError, match="outside their holding") as refused:
        parse_coin_protocol(doc)
    assert refused.value.location == "outcomes.alice.0"


def test_incomplete_rules_rejected():
    doc = mixed_invalid_doc()
    doc["outcomes"]["bob"]["invalid"] = {"qubits": [2], "accept_states": ["1"]}
    with pytest.raises(ProtocolError, match="sum to the identity") as refused:
        parse_coin_protocol(doc)
    assert refused.value.location == "outcomes.bob"


def test_measured_coin_document_is_purified_on_entry():
    doc = mixed_invalid_doc()
    doc["rounds"][0]["ops"].append(
        {"measure": True, "targets": [1], "result_id": "m"})
    p = parse_coin_protocol(doc)
    assert p.ancilla_owners == ("alice",)
    assert p.partition.num_qubits == 5


def test_triple_validation():
    with pytest.raises(InvariantViolation, match="outside"):
        FidelityTriple(f01=1.5, f0inv=None, f1inv=None, present=("0",))
    with pytest.raises(InvariantViolation, match="unknown outcome"):
        FidelityTriple(f01=0.0, f0inv=None, f1inv=None, present=("2",))
    empty = FidelityTriple(f01=None, f0inv=None, f1inv=None, present=())
    assert empty.max_fidelity() == 0.0
    assert empty.worst_pair() == (None, 0.0)


# --- honest outcomes ---------------------------------------------------------

def test_ideal_ct_is_deterministic_heads():
    dist = outcome_distribution(load_coin_protocol("ideal-ct"))
    for actor in ("alice", "bob"):
        assert dist[actor]["0"] == pytest.approx(1.0, abs=1e-12)
        assert dist[actor]["1"] == pytest.approx(0.0, abs=1e-12)
        assert dist[actor]["invalid"] == pytest.approx(0.0, abs=1e-12)


def test_guess_ct_is_a_fair_coin():
    dist = outcome_distribution(load_coin_protocol("guess-ct"))
    for actor in ("alice", "bob"):
        assert dist[actor]["0"] == pytest.approx(0.5, abs=1e-12)
        assert dist[actor]["1"] == pytest.approx(0.5, abs=1e-12)
        assert dist[actor]["invalid"] == pytest.approx(0.0, abs=1e-12)


def test_guess_ct_final_state_oracle():
    # with a = alice's bit and g = bob's guess, the run ends in
    # |a, g, g, g^a, g^a> uniformly over (a, g), qubit 0 most significant
    state = run_rounds(load_coin_protocol("guess-ct"))
    want = np.zeros(32)
    for a in (0, 1):
        for g in (0, 1):
            index = (a << 4) | (g << 3) | (g << 2) | ((g ^ a) << 1) | (g ^ a)
            want[index] = 0.5
    np.testing.assert_allclose(np.abs(state.amplitudes), want, atol=1e-12)


# --- conditioning and truncation ----------------------------------------

def test_ideal_ct_conditionals_are_orthogonal():
    triple = last_round_fidelities(load_coin_protocol("ideal-ct"))
    assert triple.present == ("0",)
    assert triple.max_fidelity() == 0.0


def test_guess_ct_last_round_is_clean_but_third_is_not():
    p = load_coin_protocol("guess-ct")
    assert last_round_fidelities(p).max_fidelity() <= 1e-12
    truncated = truncate_last_round(p)
    assert truncated.num_rounds == 3
    triple = last_round_fidelities(truncated)
    assert triple.f01 == pytest.approx(1.0, abs=1e-9)


def _assert_truncations_keep_outcomes(p):
    want = outcome_distribution(p)
    while p.rounds:
        p = truncate_last_round(p)
        got = outcome_distribution(p)
        for actor in ("alice", "bob"):
            for label in ("0", "1", "invalid"):
                assert got[actor][label] == pytest.approx(
                    want[actor][label], abs=1e-8)
    assert p.num_rounds == 0


def test_truncation_preserves_outcome_distribution():
    _assert_truncations_keep_outcomes(load_coin_protocol("ideal-ct"))


def test_truncation_rotates_the_pulled_back_rules(perfbench_gen):
    # this coin's rounds do not commute with the sender's rules, so the
    # outcomes hold only if each pulled-back rule is U^dagger (V x I)
    _assert_truncations_keep_outcomes(
        parse_coin_protocol(perfbench_gen.coin_documents(1, 16)["coin-r16-fixed"]))


def test_truncation_raises_with_witness_fields():
    p = truncate_last_round(load_coin_protocol("guess-ct"))
    with pytest.raises(NotIdealError) as info:
        truncate_last_round(p)
    err = info.value
    assert err.round_index == 3
    assert err.pair == "f01"
    assert err.fidelity == pytest.approx(1.0, abs=1e-9)
    assert "orthogonality threshold" in str(err)


def test_mixed_invalid_needs_opt_in():
    p = parse_coin_protocol(mixed_invalid_doc())
    with pytest.raises(ValueError, match="allow_mixed_invalid=True"):
        last_round_fidelities(p)
    triple = last_round_fidelities(p, allow_mixed_invalid=True)
    assert set(triple.present) == {"0", "1", "invalid"}


# --- the full induction ----------------------------------------------------

def test_ideal_ct_reaches_the_contradiction():
    rep = induction_report(load_coin_protocol("ideal-ct"))
    assert rep.verdict == "contradiction"
    assert rep.rounds == 4 and len(rep.steps) == 4
    assert [s.round_index for s in rep.steps] == [4, 3, 2, 1]
    assert [s.sender for s in rep.steps] == ["bob", "alice", "bob", "alice"]
    assert all(s.triple.max_fidelity() <= 1e-8 for s in rep.steps)
    assert rep.mutual_information <= 1e-9
    assert rep.message == "contradiction: mutual information 0 at N=0"
    assert rep.witness_round is None


@pytest.mark.parametrize("name, runs", [("ideal-ct", 5), ("guess-ct", 2)])
def test_induction_replays_the_rounds_once_per_step(monkeypatch, name, runs):
    # one honest state per truncation step, plus the zero-round state at the
    # end, each a distinct state of the forward pass
    used = []
    real_receiver, real_mi = cointoss._receiver_rules, qcore.mutual_information
    monkeypatch.setattr(
        cointoss, "_receiver_rules",
        lambda q, k, rules, state, *rest: used.append(state) or real_receiver(q, k, rules, state, *rest))
    monkeypatch.setattr(qcore, "mutual_information",
                        lambda state, side: used.append(state) or real_mi(state, side))
    induction_report(load_coin_protocol(name))
    assert len(used) == runs
    assert len({id(state) for state in used}) == runs


def _padded_coin(gen, rounds, variant):
    """perfbench's padded coin: ``fixed`` truncates fully, ``hadamard`` stops at round 1."""
    return parse_coin_protocol(gen.coin_documents(1, rounds)[f"coin-r{rounds}-{variant}"])


def _induction_inputs(gen):
    coins = {name: load_coin_protocol(name) for name in ("ideal-ct", "guess-ct")}
    for rounds in (16, 64):
        for variant in ("fixed", "hadamard"):
            coins[f"r{rounds}-{variant}"] = _padded_coin(gen, rounds, variant)
    return coins


def _rounds_and_gates(monkeypatch, call):
    """(``call()``, protocols ``run_rounds`` ran, gates ``apply_circuit`` applied)."""
    runs, gates = [], []
    real_run, real_circuit = cointoss.run_rounds, qcore.apply_circuit

    def counted_circuit(state, *op_lists):
        gates.extend(op for ops in op_lists for op in ops)
        return real_circuit(state, *op_lists)

    monkeypatch.setattr(cointoss, "run_rounds", lambda q: runs.append(q) or real_run(q))
    monkeypatch.setattr(qcore, "apply_circuit", counted_circuit)
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return result, runs, gates


def _gates_of(p):
    return [*p.initial_alice, *p.initial_bob, *(op for r in p.rounds for op in r.ops)]


def test_induction_applies_each_gate_once(monkeypatch, perfbench_gen):
    # one forward pass: no replay of the rounds, every gate exactly once
    for name, p in _induction_inputs(perfbench_gen).items():
        _, runs, gates = _rounds_and_gates(monkeypatch, lambda: induction_report(p))
        ops = _gates_of(p)
        assert runs == [], name
        assert len(gates) == len(ops), name
        assert all(a is b for a, b in zip(gates, ops)), name


def test_truncation_lifts_only_the_sender_rules(monkeypatch, perfbench_gen):
    # truncate_last_round lifts the sender's three rules once to pull them
    # back, and checks nothing the parser already checked, so no
    # completeness lift; the induction pulls back nothing, so it lifts none
    lifts = []
    real = Projector.lifted
    monkeypatch.setattr(Projector, "lifted",
                        lambda rule, space: lifts.append(rule) or real(rule, space))
    for name, p in _induction_inputs(perfbench_gen).items():
        lifts.clear()
        rep = induction_report(p)
        assert rep.steps, name
        assert lifts == [], name
        for _ in rep.steps:
            p = truncate_last_round(p)
            assert len(lifts) == 3, name
            lifts.clear()


def _replayed_induction(p):
    """Each truncation's protocol, the step triples and the refusing round's
    triple (or None), from the public calls that replay the rounds."""
    protocols, triples = [p], []
    while p.rounds:
        triple = last_round_fidelities(p)
        try:
            p = truncate_last_round(p)
        except NotIdealError:
            return protocols, triples, triple
        protocols.append(p)
        triples.append(triple)
    return protocols, triples, None


@pytest.mark.parametrize("variant", ["fixed", "hadamard"])
def test_induction_matches_the_replayed_truncations_bit_for_bit(perfbench_gen, variant):
    p = _padded_coin(perfbench_gen, 16, variant)
    rep = induction_report(p)
    protocols, triples, refused = _replayed_induction(p)
    assert [step.triple for step in rep.steps] == triples
    # the triples of an ideal step are 0 or absent, so compare the states too
    states = cointoss._round_states(p)
    for q in protocols:
        assert np.array_equal(states[q.num_rounds].amplitudes, run_rounds(q).amplitudes)
    assert len(triples) == (16 if variant == "fixed" else 15)
    if refused is None:
        assert rep.verdict == "contradiction"
    else:
        assert rep.verdict == "not_ideal"
        assert (rep.witness_pair, rep.witness_fidelity) == refused.worst_pair()


def _asymmetric_coin(alice, bob, first, hadamard, rounds=8):
    """A coin like perfbench's on ``alice`` + ``bob`` + 1 qubits, ``first`` sending first.

    Round 1 copies ``first``'s outcome qubit into the channel, round 2 copies
    the channel into the other party's outcome qubit.  In each later round
    the sender applies Z to the qubit holding their record and a seeded RY
    to a free qubit of theirs; a sender's first and third later rounds swap
    the record onto an idle qubit and back, so the rules the middle steps
    condition on read other qubits than the parsed ones.  With ``hadamard``
    ``first`` puts the outcome qubit in superposition, which makes round 1
    non-orthogonal.
    """
    rng = np.random.default_rng([alice, bob, rounds])
    machines = {"alice": list(range(alice)), "bob": list(range(alice, alice + bob))}
    channel = alice + bob
    second = "bob" if first == "alice" else "alice"
    outcome = {actor: qubits[0] for actor, qubits in machines.items()}
    record = dict(outcome)
    plan = [{"actor": first, "ops": [{"gate": "CX", "targets": [outcome[first], channel]}]},
            {"actor": second, "ops": [{"gate": "CX", "targets": [channel, outcome[second]]}]}]
    for k in range(2, rounds):
        actor = (first, second)[k % 2]
        o, idle = machines[actor][0], machines[actor][1]
        ops = []
        if (k - 2) // 2 % 3 != 1:
            ops.append({"gate": "SWAP", "targets": [o, idle]})
            record[actor] = idle if record[actor] == o else o
        free = [q for q in machines[actor] if q != record[actor]]
        ops.append({"gate": "Z", "targets": [record[actor]]})
        ops.append({"gate": "RY", "targets": [free[int(rng.integers(len(free)))]],
                    "angle": float(rng.uniform(0.0, math.pi))})
        plan.append({"actor": actor, "ops": ops})
    assert record == outcome
    doc = {"name": f"coin-a{alice}-b{bob}", "kind": "coin-toss",
           "qubits": {"alice": alice, "bob": bob, "channel": 1}}
    if hadamard:
        doc["initial"] = {first: [{"gate": "H", "targets": [outcome[first]]}]}
    doc["rounds"] = plan
    doc["outcomes"] = {
        actor: {"0": {"qubits": [q], "accept_states": ["0"]},
                "1": {"qubits": [q], "accept_states": ["1"]},
                "invalid": {"qubits": [q], "zero": True}}
        for actor, q in outcome.items()}
    return parse_coin_protocol(doc)


@pytest.mark.parametrize("alice, bob, first", [(4, 2, "alice"), (2, 4, "bob")])
@pytest.mark.parametrize("hadamard", [False, True])
def test_induction_matches_the_pulled_back_chain_on_asymmetric_registers(
        monkeypatch, alice, bob, first, hadamard):
    # the induction carries each step's receiver rules to the next step;
    # the public chain pulls the sender's rules back through every round
    p = _asymmetric_coin(alice, bob, first, hadamard)
    sides = []
    real_mi = qcore.mutual_information
    monkeypatch.setattr(qcore, "mutual_information",
                        lambda state, side: sides.append(side) or real_mi(state, side))
    rep = induction_report(p)
    monkeypatch.undo()

    protocols, triples, refused = _replayed_induction(p)
    assert rep.steps == tuple(
        cointoss.TruncationStep(q.num_rounds, q.rounds[-1].actor, triple)
        for q, triple in zip(protocols, triples))
    assert len(rep.steps) == (7 if hadamard else 8)
    if hadamard:
        assert rep.verdict == "not_ideal"
        assert rep.witness_round == 1
        assert (rep.witness_pair, rep.witness_fidelity) == refused.worst_pair()
        assert rep.mutual_information is None and sides == []
    else:
        assert refused is None and rep.verdict == "contradiction"
        empty = protocols[-1]
        assert empty.num_rounds == 0
        assert cointoss._channel_holder(empty) == first
        assert sides == [empty.partition.holding("alice", first)]
        assert rep.mutual_information == real_mi(run_rounds(empty), sides[0])


def test_induction_refuses_rounds_that_repeat_an_actor():
    p = _asymmetric_coin(4, 2, "alice", False)
    twice = replace(p, rounds=p.rounds[:2] + p.rounds[1:])
    with pytest.raises(ValueError, match="rounds 2 and 3 are both bob's"):
        induction_report(twice)


def test_rounds_holding_a_measurement_are_refused_by_the_kernel():
    # the parser compiles measurements away; a hand-built record that keeps
    # one is refused by qcore.apply_circuit, not met by an AttributeError
    p = load_coin_protocol("ideal-ct")
    first = p.rounds[0]
    measured = replace(p, rounds=(replace(first, ops=(MeasureOp((0,), "m"), *first.ops)),
                                  *p.rounds[1:]))
    for run in (run_rounds, induction_report):
        with pytest.raises(ValueError, match="^MeasureOp on .* classical control"):
            run(measured)


def test_cointoss_command_runs_the_rounds_once(monkeypatch, perfbench_gen, tmp_path):
    # the report's outcome distribution comes from the induction's forward pass
    sources = {name: name for name in ("ideal-ct", "guess-ct")}
    for rounds in (16, 64):
        for name, doc in perfbench_gen.coin_documents(1, rounds).items():
            path = tmp_path / f"{name}.yaml"
            path.write_text(perfbench_gen.to_yaml(doc), encoding="utf-8")
            sources[name] = str(path)
    out = tmp_path / "report.json"
    for name, source in sources.items():
        p = load_coin_protocol(source)
        argv = ["cointoss", "--protocol", source, "--out", str(out)]
        code, runs, gates = _rounds_and_gates(monkeypatch, lambda: cli.main(argv))
        assert code == 0, name
        assert runs == [], name
        assert gates == _gates_of(p), name
        want = outcome_distribution(p)
        assert induction_report(p).outcome_distribution == want, name
        assert json.loads(out.read_text())["outcome_distribution"] == want, name


@pytest.mark.parametrize("tol", [1.0, math.nan, 2.0, -1.0, math.inf])
def test_tol_outside_unit_interval_is_refused(tol):
    p = load_coin_protocol("guess-ct")
    with pytest.raises(ValueError, match=r"tol must be a number in \[0, 1\)"):
        induction_report(p, tol=tol)
    with pytest.raises(ValueError, match=r"tol must be a number in \[0, 1\)"):
        truncate_last_round(p, tol=tol)


def test_guess_ct_is_certified_not_ideal():
    rep = induction_report(load_coin_protocol("guess-ct"))
    assert rep.verdict == "not_ideal"
    assert len(rep.steps) == 1
    assert rep.witness_round == 3
    assert rep.witness_pair == "f01"
    assert rep.witness_fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.message.startswith("not ideal: round 3")
    assert rep.mutual_information is None


def test_induction_with_loose_tolerance_pushes_past_the_witness():
    # the witness fidelity is 1.0, so even tol=0.99 still refuses
    rep = induction_report(load_coin_protocol("guess-ct"), tol=0.99)
    assert rep.verdict == "not_ideal"


# --- the coefficient-matrix kernel --------------------------------------------

def overlap_doc(angle, phase=None):
    """1 + 1 + 1 coin whose round-3 conditional states overlap.

    Alice copies a uniform bit into the channel; Bob rotates his qubit by
    ``angle`` when the channel is 1, so his states for Alice's two outcomes
    overlap, with fidelity |cos(angle)| from |0>.  With a ``phase`` Bob
    starts from H then RZ(phase) instead, which makes his states complex.
    Alice's last round (Z) leaves them as they are.
    """
    c, s = math.cos(angle), math.sin(angle)
    raw = [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]],
           [[0, 0], [0, 0], [c, 0], [-s, 0]], [[0, 0], [0, 0], [s, 0], [c, 0]]]
    initial = {"alice": [{"gate": "H", "targets": [0]}]}
    if phase is not None:
        initial["bob"] = [{"gate": "H", "targets": [1]},
                          {"gate": "RZ", "targets": [1], "angle": phase}]
    return {
        "name": "overlap-ct", "kind": "coin-toss",
        "qubits": {"alice": 1, "bob": 1, "channel": 1},
        "initial": initial,
        "rounds": [
            {"actor": "alice", "ops": [{"gate": "CX", "targets": [0, 2]}]},
            {"actor": "bob", "ops": [{"gate": "RAW", "targets": [2, 1], "matrix": raw}]},
            {"actor": "alice", "ops": [{"gate": "Z", "targets": [0]}]},
        ],
        "outcomes": {actor: {"0": {"qubits": [q], "accept_states": ["0"]},
                             "1": {"qubits": [q], "accept_states": ["1"]},
                             "invalid": {"qubits": [q], "zero": True}}
                     for actor, q in (("alice", 0), ("bob", 1))},
    }


@pytest.mark.parametrize("tol, code", [("0.97", 2), ("0.99", 2), (None, 0)])
def test_overlapping_supports_are_bad_input(tmp_path, capsys, tol, code):
    # f01 = 0.866 at round 3: a tol above it truncates into supports that
    # overlap, which is the caller's threshold at fault, not an invariant
    source = tmp_path / "overlap-ct.yaml"
    source.write_text(document_to_yaml(overlap_doc(math.pi / 6)), encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["cointoss", "--protocol", str(source), "--out", str(out)]
    assert cli.main(argv + (["--ideal-tol", tol] if tol else [])) == code
    if tol:
        err = capsys.readouterr().err
        assert "--ideal-tol" in err and "round 3" in err, err
        assert "largest principal cosine 0.866025" in err, err
    else:
        report = json.loads(out.read_text())
        assert report["verdict"] == "not_ideal"
        assert report["message"].startswith("not ideal: round 3")
        assert report["witness_fidelity"] == pytest.approx(math.cos(math.pi / 6), abs=1e-12)


def _rotated_coin(side, seed, rounds=6):
    """A Hadamard coin on ``side`` + ``side`` + 1 qubits whose last sender
    rotates their outcome qubit by a seeded RY, so the receiver's two
    conditional states overlap without coinciding."""
    rng = np.random.default_rng([side, seed])
    channel = 2 * side
    plan = [{"actor": "alice", "ops": [{"gate": "CX", "targets": [0, channel]}]},
            {"actor": "bob", "ops": [{"gate": "CX", "targets": [channel, side]}]}]
    for k in range(2, rounds):
        outcome = 0 if k % 2 == 0 else side
        plan.append({"actor": "alice" if k % 2 == 0 else "bob", "ops": [
            {"gate": "Z", "targets": [outcome]},
            {"gate": "RY", "targets": [outcome + 1 + int(rng.integers(side - 1))],
             "angle": float(rng.uniform(0.0, math.pi))}]})
    plan[-1]["ops"].append({"gate": "RY", "targets": [0 if rounds % 2 else side],
                            "angle": float(rng.uniform(0.2, math.pi / 2 - 0.2))})
    return {"name": f"rotated-{side}", "kind": "coin-toss",
            "qubits": {"alice": side, "bob": side, "channel": 1},
            "initial": {"alice": [{"gate": "H", "targets": [0]}]},
            "rounds": plan,
            "outcomes": {actor: {"0": {"qubits": [q], "accept_states": ["0"]},
                                 "1": {"qubits": [q], "accept_states": ["1"]},
                                 "invalid": {"qubits": [q], "zero": True}}
                         for actor, q in (("alice", 0), ("bob", side))}}


def _trace_route_triple(p):
    """The conditional fidelities the density-matrix way: project psi_N on
    each sender rule, reduce to the receiver's machine, ``fidelity_trace``."""
    sender = p.rounds[-1].actor
    receiver = "bob" if sender == "alice" else "alice"
    state = run_rounds(p)
    rho = {}
    for label, rule in p.outcome_rules[sender].items():
        projected = qcore._apply_matrix(state.amplitudes, rule.matrix, rule.qubits,
                                        state.num_qubits)
        prob = float(np.vdot(projected, projected).real)
        if prob > cointoss.PRESENCE_CUTOFF:
            post = qcore.PureState(projected / math.sqrt(prob))
            rho[label] = qcore.partial_trace(post, p.partition.holding(receiver, sender))
    return {pair: fidelity.fidelity_trace(rho[x], rho[y])
            for pair, x, y in (("f01", "0", "1"), ("f0inv", "0", "invalid"),
                               ("f1inv", "1", "invalid"))
            if x in rho and y in rho}


@pytest.mark.parametrize("family, seed", [
    *(("overlap", seed) for seed in range(4)),
    *((side, seed) for side in (3, 5) for seed in range(3)),
])
def test_conditional_fidelities_agree_with_the_trace_route(family, seed):
    if family == "overlap":
        angle, phase = np.random.default_rng([1, seed]).uniform(0.1, math.pi / 2 - 0.1, 2)
        p = parse_coin_protocol(overlap_doc(float(angle), float(phase) if seed % 2 else None))
    else:
        p = parse_coin_protocol(_rotated_coin(family, seed))
    triple = last_round_fidelities(p)
    want = _trace_route_triple(p)
    got = {pair: value for pair, value in triple.items() if value is not None}
    assert sorted(got) == sorted(want) == ["f01"]
    assert 0.05 < want["f01"] < 0.999
    assert got["f01"] == pytest.approx(want["f01"], abs=1e-10)


def three_way_doc():
    """Alice draws 0, 1 or invalid uniformly on two qubits and both parties
    copy it through a 2-qubit channel, so the invalid outcome is present
    and orthogonal at rounds 3 and 2, where round 2's rules are built."""
    s = 1 / math.sqrt(2)
    controlled_h = [[[1, 0], [0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]],
                    [[0, 0], [0, 0], [s, 0], [s, 0]], [[0, 0], [0, 0], [s, 0], [-s, 0]]]

    def rules(a, b):
        return {"0": {"qubits": [a, b], "accept_states": ["00"]},
                "1": {"qubits": [a, b], "accept_states": ["01"]},
                "invalid": {"qubits": [a, b], "accept_states": ["10", "11"]}}

    return {
        "name": "three-way", "kind": "coin-toss",
        "qubits": {"alice": 2, "bob": 2, "channel": 2},
        "initial": {"alice": [
            {"gate": "RY", "targets": [0], "angle": 2 * math.acos(math.sqrt(2 / 3))},
            {"gate": "X", "targets": [0]},
            {"gate": "RAW", "targets": [0, 1], "matrix": controlled_h},
            {"gate": "X", "targets": [0]}]},
        "rounds": [
            {"actor": "alice", "ops": [{"gate": "CX", "targets": [0, 4]},
                                       {"gate": "CX", "targets": [1, 5]}]},
            {"actor": "bob", "ops": [{"gate": "CX", "targets": [4, 2]},
                                     {"gate": "CX", "targets": [5, 3]}]},
            {"actor": "alice", "ops": [{"gate": "Z", "targets": [0]}]},
        ],
        "outcomes": {"alice": rules(0, 1), "bob": rules(2, 3)},
    }


def test_induction_conditions_on_a_present_complement():
    # the induction carries "invalid" as the complement of the "0" and "1"
    # supports; the replayed chain writes it out as I - S0 - S1
    p = parse_coin_protocol(three_way_doc())
    assert outcome_distribution(p)["bob"]["invalid"] == pytest.approx(1 / 3, abs=1e-12)
    rep = induction_report(p)
    protocols, triples, refused = _replayed_induction(p)
    assert [step.triple for step in rep.steps] == triples
    assert [step.triple.present for step in rep.steps] == [("0", "1", "invalid")] * 2
    assert all(step.triple.max_fidelity() == 0.0 for step in rep.steps)
    assert (rep.verdict, rep.witness_round) == ("not_ideal", 1)
    assert (rep.witness_pair, rep.witness_fidelity) == refused.worst_pair()


def test_induction_forms_no_density_matrix(monkeypatch, perfbench_gen):
    # the induction conditions on coefficient matrices: no reduced state,
    # no matrix square root, and no eigh: every rule is an isometry already
    real_init = qcore.DensityMatrix.__post_init__
    for name, doc in perfbench_gen.coin_documents(1, 16).items():
        p = parse_coin_protocol(doc)
        built = []
        monkeypatch.setattr(qcore.DensityMatrix, "__post_init__",
                            lambda rho: built.append(rho) or real_init(rho))
        counts = count_calls(monkeypatch, {
            "partial_trace": qcore.partial_trace,
            "fidelity_trace": fidelity.fidelity_trace,
            "matrix_sqrt_psd": qcore.matrix_sqrt_psd,
            "eigh": np.linalg.eigh,
        })
        rep = induction_report(p)
        monkeypatch.undo()
        assert len(rep.steps) >= 15, name
        assert built == [], name
        assert counts["partial_trace"] == counts["fidelity_trace"] == 0, name
        assert counts["matrix_sqrt_psd"] == 0, name
        assert counts["eigh"] == 0, name


def test_induction_cuts_each_state_through_qcore_split(monkeypatch, perfbench_gen):
    # every step cuts psi_k with qcore._split, once per distinct qubit set of
    # the rules it conditions on: the document's at the first step, the
    # receiver's machine at every later one; the zero-round mutual
    # information takes one more cut
    for name, doc in perfbench_gen.coin_documents(1, 128).items():
        p = parse_coin_protocol(doc)
        first = {rule.qubits for rule in p.outcome_rules[p.rounds[-1].actor].values()}
        counts = count_calls(monkeypatch, {"_split": qcore._split})
        rep = induction_report(p)
        monkeypatch.undo()
        conditioned = len(rep.steps) + (rep.verdict == "not_ideal")
        assert conditioned >= 127, name
        want = len(first) + conditioned - 1 + (rep.verdict == "contradiction")
        assert counts == {"_split": want}, name


def test_induction_builds_rules_only_for_present_labels(monkeypatch, perfbench_gen):
    # the parser's rules take Projector's full construction; the induction's
    # take Projector._of, which keeps only the isometry check, and a "0" or
    # "1" that never occurs gets no rule at all
    real_init, real_of = Projector.__post_init__, Projector._of.__func__
    absent = 0
    for name, doc in perfbench_gen.coin_documents(1, 128).items():
        inits, widths = [], []
        monkeypatch.setattr(Projector, "__post_init__",
                            lambda rule: inits.append(rule) or real_init(rule))
        p = parse_coin_protocol(doc)
        parsed = len(inits)
        monkeypatch.setattr(Projector, "_of", classmethod(
            lambda cls, qubits, v: widths.append(v.shape[1]) or real_of(cls, qubits, v)))
        rep = induction_report(p)
        monkeypatch.undo()
        assert len(rep.steps) >= 127, name
        assert parsed > 0 and len(inits) == parsed, name
        present = [label for step in rep.steps for label in step.triple.present
                   if label != "invalid"]
        assert len(widths) == len(present), name
        assert all(width > 0 for width in widths), name
        absent += 2 * len(rep.steps) - len(present)
    assert absent > 0


def _scaled_supports(monkeypatch, factor, *, checked):
    """Scale every rule the induction builds by ``factor``, before the
    isometry check when ``checked`` and after it otherwise."""
    real_of = Projector._of.__func__

    def scaled(cls, qubits, v):
        if checked:
            return real_of(cls, qubits, v * factor)
        rule = real_of(cls, qubits, v)
        object.__setattr__(rule, "isometry", rule.isometry * factor)
        return rule
    monkeypatch.setattr(Projector, "_of", classmethod(scaled))


def test_induction_keeps_the_isometry_check_on_its_rules(monkeypatch, perfbench_gen):
    protocols = [parse_coin_protocol(doc)
                 for doc in perfbench_gen.coin_documents(1, 128).values()]
    _scaled_supports(monkeypatch, 1 + 1e-6, checked=True)
    message = f"projector is not an isometry within {PROJECTOR_TOL}"
    for p in protocols:
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            induction_report(p)


def test_induction_keeps_the_completeness_check(monkeypatch, perfbench_gen):
    # a rule that passed its check but is not an isometry breaks the next
    # step's sum of probabilities
    p = parse_coin_protocol(perfbench_gen.coin_documents(1, 128)["coin-r128-fixed"])
    _scaled_supports(monkeypatch, 1 + 1e-4, checked=False)
    with pytest.raises(InvariantViolation,
                       match=f"^outcome probabilities sum to .*, not 1 within {COMPLETENESS_TOL}$"):
        induction_report(p)


# --- document emission -------------------------------------------------------

def test_coin_document_roundtrip():
    p = load_coin_protocol("ideal-ct")
    doc = coin_to_document(p)
    q = parse_coin_protocol(document_to_yaml(doc))
    assert q.num_rounds == p.num_rounds
    want = outcome_distribution(p)
    got = outcome_distribution(q)
    for actor in ("alice", "bob"):
        for label in ("0", "1", "invalid"):
            assert got[actor][label] == pytest.approx(want[actor][label], abs=1e-12)


def test_zero_rules_roundtrip_as_zero_nodes():
    p = load_coin_protocol("ideal-ct")
    doc = coin_to_document(p)
    assert doc["outcomes"]["alice"]["invalid"] == {"qubits": [0], "zero": True}


# --- the N * epsilon >= 1 bound ---------------------------------------------

def test_min_rounds_exact_values():
    assert min_rounds(1) == 1
    assert min_rounds(Fraction(1, 2)) == 2
    assert min_rounds("1/3") == 3
    assert min_rounds(Fraction(2, 3)) == 2
    assert min_rounds(0.1) == 10
    assert min_rounds(0.01) == 100


def test_min_rounds_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        min_rounds(0)
    with pytest.raises(ValueError):
        min_rounds(-0.5)
    with pytest.raises(ValueError):
        min_rounds(1.5)
    with pytest.raises(TypeError):
        min_rounds(True)
    with pytest.raises(ValueError):
        min_rounds(float("nan"))
    with pytest.raises(ValueError):
        min_rounds("3/0")
    with pytest.raises(TypeError):
        min_rounds([1])


def test_min_rounds_reads_numpy_numbers():
    # any numbers.Rational is exact, any other numbers.Real takes the float path
    assert min_rounds(np.int64(1)) == 1
    assert min_rounds(np.uint8(1)) == 1
    assert min_rounds(np.float32(0.5)) == 2
    assert min_rounds(np.float64(0.1)) == 10
    assert min_rounds(np.float32(0.1)) == 10
    with pytest.raises(ValueError, match="must lie in"):
        min_rounds(np.int64(2))
    with pytest.raises(ValueError, match="must be finite"):
        min_rounds(np.float32("nan"))
    with pytest.raises(ValueError, match="must be finite"):
        min_rounds(np.float64("inf"))
    with pytest.raises(TypeError):
        min_rounds(np.bool_(True))


def test_a_numpy_rational_becomes_a_fraction_of_python_ints():
    eps = cointoss._as_fraction(np.int64(3), "epsilon")
    assert eps == 3 and type(eps) is Fraction
    assert type(eps.numerator) is int and type(eps.denominator) is int


def test_validate_walk_reads_numpy_arrays():
    assert validate_walk(np.array([[0, 0], [1, 1]]), 1).ok
    assert validate_walk(np.array([[0, 0], [0.5, 0.5], [1, 1]], dtype=np.float32),
                         np.float32(0.5)).ok
    res = validate_walk(np.array([[0, 0], [1, 0], [1, 1]]), np.int64(1))
    assert res.ok
    res = validate_walk(np.array([[0, 0], [1, 0], [1, 1]]), Fraction(1, 2))
    assert not res.ok and res.first_violation == 1
    with pytest.raises(TypeError):
        validate_walk(np.array([[False, False], [True, True]]), 1)


def test_min_rounds_saturates_the_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        eps = Fraction(int(rng.integers(1, 40)), int(rng.integers(40, 400)))
        if eps > 1:
            eps = 1 / eps
        n = min_rounds(eps)
        assert n * eps >= 1
        assert (n - 1) * eps < 1


def test_validate_walk_accepts_the_canonical_ladder():
    eps = Fraction(1, 3)
    walk = [(0, 0), (eps, 0), (eps, eps), (2 * eps, eps), (2 * eps, 2 * eps),
            (1, 2 * eps), (1, 1)]
    res = validate_walk(walk, eps)
    assert res.ok and res.first_violation is None and res.reason is None


def test_validate_walk_flags_a_wide_gap():
    res = validate_walk([(0, 0), (Fraction(1, 2), 0), (1, 1)], Fraction(1, 3))
    assert not res.ok
    assert res.first_violation == 1
    assert res.reason == "information gap 0.5 exceeds epsilon at step 1"


def test_validate_walk_flags_a_short_endpoint():
    res = validate_walk([(0, 0), (Fraction(1, 2), Fraction(1, 2))], 1)
    assert not res.ok
    assert res.first_violation == 1
    assert res.reason == "endpoint is not (1, 1)"


def test_validate_walk_float_snapping_is_exact():
    # ten 0.1 steps land exactly on 1 after rational snapping
    walk = [(i / 10, i / 10) for i in range(11)]
    assert validate_walk(walk, 0.1).ok


def test_validate_walk_raises_on_malformed_input():
    with pytest.raises(ValueError, match="empty"):
        validate_walk([], 0.5)
    with pytest.raises(ValueError, match="start"):
        validate_walk([(0, 1)], 0.5)
    with pytest.raises(ValueError, match=r"leaves \[0, 1\]"):
        validate_walk([(0, 0), (1.5, 0)], 0.5)
    with pytest.raises(ValueError, match="not a pair"):
        validate_walk([(0, 0), 7], 0.5)
    with pytest.raises(ValueError, match="positive"):
        validate_walk([(0, 0)], 0)
    with pytest.raises(TypeError):
        validate_walk([(0, 0), (True, 1)], 0.5)
