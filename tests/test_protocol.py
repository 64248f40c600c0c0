"""Protocol documents: parsing, honest execution, purification, emission."""

import math
import re

import numpy as np
import pytest
import yaml

from qcheat import cli, document, protocol, qcore
from qcheat.attack import epr_attack
from qcheat.document import (
    BUILTIN_NAMES,
    MeasureOp,
    Projector,
    ProtocolError,
    document_to_yaml,
    load_coin_protocol,
    load_protocol,
    parse_coin_protocol,
    parse_protocol,
    protocol_to_document,
    purify_protocol,
    resolve_document,
)
from qcheat.protocol import (
    alice_side,
    bob_holding,
    commit_custody,
    commit_delta,
    enumerate_acceptance,
    enumerate_branches,
    run_commit,
    run_open,
)
from qcheat.qcore import InvariantViolation, partial_trace


def minimal_doc(**extra):
    """Smallest well-formed commitment: one qubit each, one round per phase."""
    doc = {
        "name": "tiny",
        "qubits": {"alice": 1, "bob": 1, "channel": 1},
        "commit_rounds": [{"actor": "alice", "ops": [{"gate": "X", "targets": [2]}]}],
        "open_rounds": [{"actor": "bob", "ops": [{"gate": "X", "targets": [2]}]}],
    }
    doc.update(extra)
    return doc


# --- parsing the shipped protocols ---------------------------------------

def test_builtin_names_cover_the_commitment_family():
    assert {"bell-bc", "bb84-bc", "leaky-bc"} <= set(BUILTIN_NAMES)


def test_bell_bc_shape():
    p = load_protocol("bell-bc")
    assert p.declared_counts() == {"alice": 1, "bob": 1, "channel": 1}
    assert len(p.commit_rounds) == 1 and len(p.open_rounds) == 2
    assert not p.has_measurements
    assert p.verification[0].qubits == p.verification[1].qubits == (1, 2)


def test_bb84_bc_shape():
    p = load_protocol("bb84-bc")
    assert p.declared_counts() == {"alice": 2, "bob": 1, "channel": 1}
    assert p.has_measurements
    measured = [op for rnd in p.all_rounds for op in rnd.ops
                if isinstance(op, MeasureOp)]
    assert [m.result_id for m in measured] == ["coin"]


def test_leaky_bc_parameter_default():
    p = load_protocol("leaky-bc")
    assert p.params == {"theta": pytest.approx(math.pi / 4)}


# --- resolve_document ------------------------------------------------------

def test_resolve_positional_parameter():
    doc, overrides = resolve_document("leaky-bc(0.5)")
    assert overrides == {"theta": 0.5}
    p = parse_protocol(doc, param_overrides=overrides)
    assert p.params["theta"] == 0.5


@pytest.mark.parametrize("value, message", [
    (10 ** 400, "expected a finite number"),
    (True, "expected a number"),
    ("0.5", "expected a number"),
], ids=["huge-int", "bool", "string"])
def test_overrides_are_read_as_document_params_are(value, message):
    # through float() first, 10**400 would raise a bare OverflowError, True
    # would read as 1.0 and "0.5" as 0.5
    doc, _ = resolve_document("leaky-bc")
    with pytest.raises(ProtocolError, match=message) as caught:
        parse_protocol(doc, param_overrides={"theta": value})
    assert caught.value.location == "params.theta"


def test_resolve_rejects_positional_on_parameterless_builtin():
    with pytest.raises(ProtocolError, match="exactly one positional parameter"):
        resolve_document("bell-bc(0.3)")


def test_resolve_rejects_bad_parameter_literal():
    with pytest.raises(ProtocolError, match="bad parameter value"):
        resolve_document("leaky-bc(up)")


def test_resolve_missing_file():
    with pytest.raises(ProtocolError, match="neither a built-in"):
        resolve_document("no-such-protocol")


def test_resolve_path_with_parentheses_falls_through_to_filesystem(tmp_path):
    target = tmp_path / "odd(1).yaml"
    target.write_text(document_to_yaml(minimal_doc()), encoding="utf-8")
    doc, overrides = resolve_document(str(target))
    assert overrides == {} and doc["name"] == "tiny"


def test_resolve_file_path(tmp_path):
    target = tmp_path / "proto.yaml"
    target.write_text(document_to_yaml(minimal_doc()), encoding="utf-8")
    p = load_protocol(str(target))
    assert p.name == "tiny"


# --- diagnostics carry field paths ----------------------------------------

def test_error_location_for_bad_gate_name():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"].append({"gate": "Q", "targets": [2]})
    with pytest.raises(ProtocolError, match=r"commit_rounds\[0\]\.ops\[1\]\.gate"):
        parse_protocol(doc)


def test_error_location_for_foreign_target():
    # alice acting on bob's machine qubit
    doc = minimal_doc(commit_rounds=[
        {"actor": "alice", "ops": [{"gate": "X", "targets": [1]}]}])
    with pytest.raises(ProtocolError, match=r"commit_rounds\[0\]\.ops\[0\]"):
        parse_protocol(doc)


def test_error_location_for_unknown_field():
    doc = minimal_doc(flavor="strawberry")
    with pytest.raises(ProtocolError, match="unknown field 'flavor'"):
        parse_protocol(doc)


def test_repeated_actor_needs_annotation():
    doc = minimal_doc(commit_rounds=[
        {"actor": "alice", "ops": [{"gate": "X", "targets": [2]}]},
        {"actor": "alice", "ops": [{"gate": "Z", "targets": [2]}]},
    ])
    with pytest.raises(ProtocolError, match="twice in a row"):
        parse_protocol(doc)
    for flag in ("no", 1, 0.5, [0], None):
        doc["commit_rounds"][1]["allow_consecutive"] = flag
        with pytest.raises(ProtocolError, match="true or false") as refused:
            parse_protocol(doc)
        assert refused.value.location == "commit_rounds[1].allow_consecutive"
    doc["commit_rounds"][1]["allow_consecutive"] = True
    assert len(parse_protocol(doc).commit_rounds) == 2


def test_measurement_rejected_in_initial_prep():
    doc = minimal_doc(initial={"alice0": [{"measure": True, "targets": [0],
                                           "result_id": "m"}]})
    with pytest.raises(ProtocolError, match="not allowed here"):
        parse_protocol(doc)


def test_duplicate_result_id_rejected():
    doc = minimal_doc(commit_rounds=[
        {"actor": "alice", "ops": [
            {"measure": True, "targets": [0], "result_id": "m"},
            {"measure": True, "targets": [2], "result_id": "m"},
        ]}])
    with pytest.raises(ProtocolError, match="duplicate result_id"):
        parse_protocol(doc)


def test_coin_document_directed_to_other_parser():
    with pytest.raises(ProtocolError, match="parse_coin_protocol"):
        parse_protocol(minimal_doc(kind="coin-toss"))


def _relabeled(name, kind):
    return {**resolve_document(name)[0], "kind": kind}


@pytest.mark.parametrize("call, message, location", [
    (lambda: parse_protocol(_relabeled("bell-bc", "coin-toss")),
     "kind: document kind 'coin-toss' is not bit-commitment; coin-toss documents go "
     "through parse_coin_protocol", "kind"),
    (lambda: parse_coin_protocol(_relabeled("ideal-ct", "bit-commitment")),
     "kind: document kind 'bit-commitment' is not coin-toss; bit-commitment documents "
     "go through parse_protocol", "kind"),
    # the kind is checked before the keys, so a whole document of the other
    # kind is sent to its parser too
    (lambda: load_protocol("ideal-ct"),
     "kind: document kind 'coin-toss' is not bit-commitment; coin-toss documents go "
     "through parse_coin_protocol", "kind"),
    (lambda: load_coin_protocol("bell-bc"),
     "kind: document kind 'bit-commitment' is not coin-toss; bit-commitment documents "
     "go through parse_protocol", "kind"),
], ids=["coin-as-commitment", "commitment-as-coin", "load-ideal-ct", "load-bell-bc"])
def test_wrong_kind_messages_are_pinned(call, message, location):
    with pytest.raises(ProtocolError) as info:
        call()
    assert (str(info.value), info.value.location) == (message, location)


def test_yaml_syntax_error_is_wrapped():
    with pytest.raises(ProtocolError, match="YAML syntax error"):
        parse_protocol("name: [unclosed")


# --- angle expressions ------------------------------------------------------

def test_angle_expressions_evaluate_against_params():
    doc = minimal_doc(params={"theta": 0.3})
    doc["commit_rounds"][0]["ops"] = [
        {"gate": "RY", "targets": [2], "angle": "pi/2"},
        {"gate": "RY", "targets": [2], "angle": "-theta"},
        {"gate": "RZ", "targets": [2], "angle": "2*theta"},
    ]
    ops = parse_protocol(doc).commit_rounds[0].ops
    assert ops[0].param == pytest.approx(math.pi / 2)
    assert ops[1].param == pytest.approx(-0.3)
    assert ops[2].param == pytest.approx(0.6)


def test_angle_unknown_name():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [{"gate": "RY", "targets": [2], "angle": "phi"}]
    with pytest.raises(ProtocolError, match="unknown name 'phi'"):
        parse_protocol(doc)


def test_angle_malformed_expression():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [{"gate": "RY", "targets": [2], "angle": "1+"}]
    with pytest.raises(ProtocolError, match="malformed angle"):
        parse_protocol(doc)


def test_angle_division_by_zero():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [{"gate": "RY", "targets": [2], "angle": "1/0"}]
    with pytest.raises(ProtocolError, match="division by zero"):
        parse_protocol(doc)


def test_angle_longer_than_500_characters():
    # one unary minus a character: the deepest tree a string of its length can have
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [{"gate": "RY", "targets": [2], "angle": "-" * 499 + "1"}]
    assert parse_protocol(doc).commit_rounds[0].ops[0].param == -1.0
    doc["commit_rounds"][0]["ops"][0]["angle"] = "-" * 500 + "1"
    with pytest.raises(ProtocolError, match=r"\.angle: .* is longer than 500 characters$"):
        parse_protocol(doc)


@pytest.mark.parametrize("angle", [
    "10**400", "2**2**2**2**2", "1e308*10", "1e308*10 - 1e308*10", "(-8)**0.5",
    pytest.param("1" + "0" * 400, id="400-digit-literal"), float("nan"), float("inf"),
    pytest.param(10 ** 400, id="400-digit-int")])
def test_angle_must_be_a_finite_real(angle):
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [{"gate": "RY", "targets": [2], "angle": angle}]
    with pytest.raises(ProtocolError, match=r"^commit_rounds\[0\]\.ops\[0\]\.angle: "):
        parse_protocol(doc)


@pytest.mark.parametrize("value", [
    ".nan", ".inf", "-.inf", pytest.param("1" + "0" * 400, id="400-digit-int")])
def test_params_must_be_finite(value):
    text = document_to_yaml(minimal_doc()) + f"params:\n  theta: {value}\n"
    with pytest.raises(ProtocolError, match=r"^params\.theta: expected a finite number"):
        parse_protocol(text)


@pytest.mark.parametrize("source", ["leaky-bc(nan)", "leaky-bc(inf)", "leaky-bc(-inf)"])
def test_positional_parameter_must_be_finite(source):
    with pytest.raises(ProtocolError, match=r"^params\.theta: expected a finite number"):
        load_protocol(source)


def test_unknown_kind_is_refused_at_kind():
    for kind in ("foo", ["bit-commitment"], None):
        with pytest.raises(ProtocolError, match="^kind: unknown document kind"):
            parse_protocol(minimal_doc(kind=kind))


# --- matrix literals ---------------------------------------------------------

def test_matrix_flat_and_nested_forms_agree():
    # a flat literal lists dim^2 [re, im] pairs row-major
    flat = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    nested = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    for form in (flat, nested):
        doc = minimal_doc()
        doc["commit_rounds"][0]["ops"] = [
            {"gate": "RAW", "targets": [2], "matrix": form}]
        op = parse_protocol(doc).commit_rounds[0].ops[0]
        np.testing.assert_allclose(op.matrix, [[0, 1], [1, 0]], atol=0)


def test_matrix_must_be_unitary():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [
        {"gate": "RAW", "targets": [2],
         "matrix": [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]
    with pytest.raises(ProtocolError, match="not unitary"):
        parse_protocol(doc)


def test_matrix_bad_pair_entry():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [
        {"gate": "RAW", "targets": [2],
         "matrix": [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]]}]
    with pytest.raises(ProtocolError, match=r"\[re, im\]"):
        parse_protocol(doc)


def test_matrix_entries_must_be_finite():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [
        {"gate": "RAW", "targets": [2],
         "matrix": [[float("nan"), 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}]
    with pytest.raises(ProtocolError, match=r"matrix: expected a finite number"):
        parse_protocol(doc)


def test_matrix_flat_non_square_count():
    doc = minimal_doc()
    doc["commit_rounds"][0]["ops"] = [
        {"gate": "RAW", "targets": [2],
         "matrix": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]
    with pytest.raises(ProtocolError, match="square count"):
        parse_protocol(doc)


# --- honest execution -------------------------------------------------------

@pytest.mark.parametrize("name", ["bell-bc", "bb84-bc", "leaky-bc"])
def test_honest_runs_accept(name):
    p = load_protocol(name)
    if p.has_measurements:
        p = purify_protocol(p)
    for b in (0, 1):
        assert run_open(p, run_commit(p, b), b) == pytest.approx(1.0, abs=1e-12)


def test_bell_bc_cross_claim_rejected():
    p = load_protocol("bell-bc")
    assert run_open(p, run_commit(p, 0), 1) == pytest.approx(0.0, abs=1e-12)


def test_bb84_bc_cross_claim_half():
    # wrong-basis verification passes half the time
    p = purify_protocol(load_protocol("bb84-bc"))
    assert run_open(p, run_commit(p, 0), 1) == pytest.approx(0.5, abs=1e-12)
    assert run_open(p, run_commit(p, 1), 0) == pytest.approx(0.5, abs=1e-12)


def test_run_commit_rejects_measurements():
    p = load_protocol("bb84-bc")
    with pytest.raises(ValueError, match="purify_protocol"):
        run_commit(p, 0)


def test_run_open_checks_register_width():
    p = load_protocol("bell-bc")
    q = purify_protocol(load_protocol("bb84-bc"))
    with pytest.raises(ValueError, match="qubits"):
        run_open(p, run_commit(q, 0), 0)


def test_bad_bit_values():
    p = load_protocol("bell-bc")
    with pytest.raises(ValueError):
        run_commit(p, 2)
    with pytest.raises(ValueError):
        run_open(p, run_commit(p, 0), "0")


# --- custody and the concealment defect -------------------------------------

def test_custody_goes_to_the_receiver_of_the_last_commit_round():
    # bell-bc's single commit round is alice's, so the channel sits with bob
    assert commit_custody(load_protocol("bell-bc")) == "bob"
    doc = minimal_doc(
        commit_rounds=[{"actor": "bob", "ops": [{"gate": "X", "targets": [2]}]}],
        open_rounds=[{"actor": "alice", "ops": [{"gate": "X", "targets": [2]}]}])
    assert commit_custody(parse_protocol(doc)) == "alice"


def test_custody_default_without_commit_rounds():
    p = parse_protocol(minimal_doc(commit_rounds=[]))
    assert commit_custody(p) == "bob"


def test_custody_override():
    p = load_protocol("bell-bc")
    assert commit_custody(p, "bob") == "bob"
    with pytest.raises(ValueError):
        commit_custody(p, "carol")


def test_side_split_is_a_partition():
    p = purify_protocol(load_protocol("bb84-bc"))
    for custody in ("alice", "bob"):
        a = alice_side(p, custody)
        b = bob_holding(p, custody)
        assert sorted(a + b) == list(range(p.partition.num_qubits))
        assert set(a).isdisjoint(b)
    # channel qubit 3 changes hands with custody
    assert 3 in alice_side(p, "alice") and 3 in bob_holding(p, "bob")


def test_commit_delta_bell_is_zero():
    delta, rho0, rho1 = commit_delta(load_protocol("bell-bc"))
    assert delta <= 1e-12
    np.testing.assert_allclose(rho0.entries, rho1.entries, atol=1e-12)


def test_commit_delta_leaky_matches_angle():
    for theta in (0.0, 0.4, 1.1, math.pi / 2):
        doc, ov = resolve_document(f"leaky-bc({theta})")
        p = parse_protocol(doc, param_overrides=ov)
        delta, _, _ = commit_delta(p)
        assert delta == pytest.approx(1.0 - math.cos(theta), abs=1e-10)


# --- purification ------------------------------------------------------------

def test_purify_bb84_moves_measurement_to_an_ancilla():
    p = purify_protocol(load_protocol("bb84-bc"))
    assert not p.has_measurements
    assert p.ancilla_owners == ("alice",)
    assert p.partition.num_qubits == 5
    # declared counts stay what the document said
    assert p.declared_counts() == {"alice": 2, "bob": 1, "channel": 1}


def test_purify_without_measurements_is_identity():
    p = load_protocol("bell-bc")
    assert purify_protocol(p) is p


def test_purified_distribution_matches_branches():
    p = load_protocol("bb84-bc")
    q = purify_protocol(p)
    for b in (0, 1):
        exact = enumerate_acceptance(p, b, b)
        assert run_open(q, run_commit(q, b), b) == pytest.approx(exact, abs=1e-10)


def test_branches_of_bb84_are_two_fair_coins():
    branches = enumerate_branches(load_protocol("bb84-bc"), 0)
    assert len(branches) == 2
    probs = sorted(prob for prob, _, _ in branches)
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    assert {results["coin"] for _, results, _ in branches} == {(0,), (1,)}


def test_branch_probabilities_sum_to_one():
    p = load_protocol("bb84-bc")
    for b in (0, 1):
        total = sum(prob for prob, _, _ in enumerate_branches(p, b))
        assert total == pytest.approx(1.0, abs=1e-12)


def controlled_doc(ops_after_measure):
    """2 alice + 1 bob + 1 channel, alice measures q1 then conditions."""
    return {
        "name": "cc",
        "qubits": {"alice": 2, "bob": 1, "channel": 1},
        "initial": {"alice1": [{"gate": "X", "targets": [0]}]},
        "commit_rounds": [
            {"actor": "alice", "ops": [
                {"gate": "H", "targets": [1]},
                {"gate": "CX", "targets": [1, 3]},
                {"measure": True, "targets": [1], "result_id": "m"},
            ] + ops_after_measure},
        ],
        "open_rounds": [{"actor": "bob", "ops": [{"gate": "H", "targets": [2]}]}],
        "verify": {"accept_b0": {"qubits": [2], "accept_states": ["0"]},
                   "accept_b1": {"qubits": [2], "accept_states": ["1"]}},
    }


@pytest.mark.parametrize("gate", ["X", "Z", "H"])
def test_classically_controlled_gate_matches_branches(gate):
    doc = controlled_doc([{"gate": gate, "targets": [3], "control_classical": "m"}])
    p = parse_protocol(doc)
    q = purify_protocol(p)
    for b in (0, 1):
        for claim in (0, 1):
            exact = enumerate_acceptance(p, b, claim)
            purified = run_open(q, run_commit(q, b), claim)
            assert purified == pytest.approx(exact, abs=1e-10)


def test_controlled_cx_compiles_within_target_budget():
    doc = controlled_doc([{"gate": "CX", "targets": [3, 0], "control_classical": "m"}])
    q = purify_protocol(parse_protocol(doc))
    widths = [len(op.targets) for rnd in q.all_rounds for op in rnd.ops]
    assert max(widths) <= 3
    p = parse_protocol(doc)
    for b in (0, 1):
        exact = enumerate_acceptance(p, b, 0)
        assert run_open(q, run_commit(q, b), 0) == pytest.approx(exact, abs=1e-10)


def test_controlled_gate_under_two_bit_record():
    # both record bits must read 1 for the X to fire; compiles to 3 raw targets
    doc = {
        "name": "cc2",
        "qubits": {"alice": 2, "bob": 1, "channel": 1},
        "commit_rounds": [
            {"actor": "alice", "ops": [
                {"gate": "H", "targets": [0]},
                {"gate": "H", "targets": [1]},
                {"measure": True, "targets": [0, 1], "result_id": "mm"},
                {"gate": "X", "targets": [3], "control_classical": "mm"},
            ]},
        ],
        "open_rounds": [{"actor": "bob", "ops": [{"gate": "X", "targets": [2]}]}],
        # accept exactly when the X fired
        "verify": {"accept_b1": {"qubits": [3], "accept_states": ["1"]}},
    }
    p = parse_protocol(doc)
    q = purify_protocol(p)
    for b in (0, 1):
        exact = enumerate_acceptance(p, b, 1)
        assert exact == pytest.approx(0.25, abs=1e-12)
        assert run_open(q, run_commit(q, b), 1) == pytest.approx(exact, abs=1e-10)


def bob_measures_doc():
    """Alice entangles the channel with her bit; Bob measures it, flips his
    qubit on the result, and the channel goes back to Alice."""
    return {
        "name": "bob-measures",
        "qubits": {"alice": 1, "bob": 1, "channel": 1},
        "initial": {"alice1": [{"gate": "X", "targets": [0]}]},
        "commit_rounds": [
            {"actor": "alice", "ops": [{"gate": "RY", "targets": [2], "angle": 1.1},
                                       {"gate": "CX", "targets": [0, 2]}]},
            {"actor": "bob", "ops": [
                {"gate": "H", "targets": [1]},
                {"measure": True, "targets": [2], "result_id": "m"},
                {"gate": "X", "targets": [1], "control_classical": "m"},
                {"gate": "RY", "targets": [1], "angle": 0.3}]},
        ],
        "open_rounds": [{"actor": "alice", "ops": [{"gate": "H", "targets": [2]}]}],
        "verify": {"accept_b0": {"qubits": [1, 2], "accept_states": ["00", "10"]},
                   "accept_b1": {"qubits": [1, 2], "accept_states": ["01"]}},
    }


def test_bob_measurement_purifies_onto_a_bob_ancilla(tmp_path, capsys):
    p = parse_protocol(bob_measures_doc())
    q = purify_protocol(p)
    assert q.ancilla_owners == ("bob",)
    assert q.partition.machine("bob") == frozenset({1, 3})
    for b in (0, 1):
        for claim in (0, 1):
            exact = enumerate_acceptance(p, b, claim)
            assert run_open(q, run_commit(q, b), claim) == pytest.approx(exact, abs=1e-10)
    path = tmp_path / "bob-measures.yaml"
    path.write_text(yaml.safe_dump(bob_measures_doc()), encoding="utf-8")
    assert cli.main(["purify", "--protocol", str(path)]) == 0
    assert yaml.safe_load(capsys.readouterr().out)["ancillas"] == ["bob"]


def test_controlled_two_qubit_gate_under_two_bit_record_exceeds_budget():
    # 2 record ancillas + 2 gate targets = 4 raw targets, past the cap
    doc = {
        "name": "cc3",
        "qubits": {"alice": 3, "bob": 1, "channel": 1},
        "commit_rounds": [
            {"actor": "alice", "ops": [
                {"measure": True, "targets": [0, 1], "result_id": "mm"},
                {"gate": "SWAP", "targets": [2, 4], "control_classical": "mm"},
            ]},
        ],
        "open_rounds": [{"actor": "bob", "ops": [{"gate": "X", "targets": [3]}]}],
    }
    with pytest.raises(ProtocolError, match="caps raw gates"):
        purify_protocol(parse_protocol(doc))


def _wide_doc(alice, **fields):
    """A commitment document with ``alice`` + 1 + 1 qubits."""
    return {"name": "wide", "qubits": {"alice": alice, "bob": 1, "channel": 1}, **fields}


def _wide_coin(rounds):
    """A coin toss on 22 + 1 + 1 qubits, each party reading its first qubit."""
    rules = {actor: {"0": {"qubits": [q], "accept_states": ["0"]},
                     "1": {"qubits": [q], "accept_states": ["1"]},
                     "invalid": {"qubits": [q], "zero": True}}
             for actor, q in (("alice", 0), ("bob", 22))}
    return {"name": "wide", "kind": "coin-toss",
            "qubits": {"alice": 22, "bob": 1, "channel": 1}, "rounds": rounds,
            "outcomes": rules}


_MEASURE = {"measure": True, "targets": [0], "result_id": "m"}


@pytest.mark.parametrize("doc, message", [
    (_wide_doc(22, commit_rounds=[{"actor": "alice", "ops": [
        {"gate": "H", "targets": [0]}, _MEASURE]}]),
     "commit_rounds[0].ops[1]: purification exceeds the 24-qubit cap"),
    (_wide_doc(21, commit_rounds=[{"actor": "alice", "ops": [_MEASURE]}],
               open_rounds=[{"actor": "bob", "ops": [{"gate": "X", "targets": [21]}]},
                            {"actor": "alice", "ops": [
                                {"gate": "H", "targets": [1]},
                                {"measure": True, "targets": [1], "result_id": "n"}]}]),
     "open_rounds[1].ops[1]: purification exceeds the 24-qubit cap"),
    (_wide_coin([{"actor": "alice", "ops": [_MEASURE]}]),
     "rounds[0].ops[0]: purification exceeds the 24-qubit cap"),
    (_wide_doc(3, commit_rounds=[{"actor": "alice", "ops": [
        {"measure": True, "targets": [0, 1], "result_id": "mm"},
        {"gate": "CX", "targets": [2, 4], "control_classical": "mm"}]}]),
     "commit_rounds[0].ops[1]: classically controlled CX needs 4 qubits as a raw "
     "controlled gate; the basis caps raw gates at 3"),
], ids=["commit-cap", "open-cap", "coin-cap", "control-width"])
def test_purification_refusals_name_the_op(tmp_path, capsys, doc, message):
    coin = doc.get("kind") == "coin-toss"
    with pytest.raises(ProtocolError) as refused:
        parse_coin_protocol(doc) if coin else purify_protocol(parse_protocol(doc))
    assert str(refused.value) == message
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main(["cointoss" if coin else "simulate", "--protocol", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# --- document emission -------------------------------------------------------

@pytest.mark.parametrize("name", ["bell-bc", "leaky-bc"])
def test_roundtrip_preserves_acceptance(name):
    p = load_protocol(name)
    text = document_to_yaml(protocol_to_document(p))
    q = parse_protocol(text)
    for b in (0, 1):
        for claim in (0, 1):
            want = run_open(p, run_commit(p, b), b and claim or claim)
            got = run_open(q, run_commit(q, b), b and claim or claim)
            assert got == pytest.approx(want, abs=1e-12)


def test_roundtrip_of_purified_protocol():
    p = purify_protocol(load_protocol("bb84-bc"))
    doc = protocol_to_document(p)
    assert doc["ancillas"] == ["alice"]
    q = parse_protocol(document_to_yaml(doc))
    assert q.partition.num_qubits == p.partition.num_qubits
    for b in (0, 1):
        assert run_open(q, run_commit(q, b), b) == pytest.approx(1.0, abs=1e-10)


def test_purify_round_trip_keeps_allow_consecutive(tmp_path, capsys):
    doc = minimal_doc(commit_rounds=[
        {"actor": "alice", "ops": [{"measure": True, "targets": [0], "result_id": "m"}]},
        {"actor": "alice", "ops": [{"gate": "X", "targets": [2]}],
         "allow_consecutive": True},
    ])
    path = tmp_path / "consecutive.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main(["purify", "--protocol", str(path)]) == 0
    emitted = yaml.safe_load(capsys.readouterr().out)
    assert [rnd.get("allow_consecutive") for rnd in emitted["commit_rounds"]] == [None, True]
    assert parse_protocol(emitted).commit_rounds[1].allow_consecutive is True


def test_emitted_unpurified_protocol_keeps_its_measurements():
    # purify only emits measurement-free documents; this one still measures
    p = load_protocol("bb84-bc")
    q = parse_protocol(document_to_yaml(protocol_to_document(p)))
    assert q.has_measurements
    assert q.open_rounds[1].ops == (MeasureOp((1,), "coin"), p.open_rounds[1].ops[1])
    assert q.open_rounds[1].ops[1].control_classical == "coin"
    table = [[enumerate_acceptance(r, b, claim) for b in (0, 1) for claim in (0, 1)]
             for r in (p, q)]
    assert table[0] == table[1]


def test_emitted_angles_are_numeric():
    doc = protocol_to_document(load_protocol("leaky-bc"))
    assert "params" not in doc
    angle = doc["commit_rounds"][0]["ops"][0]["angle"]
    assert isinstance(angle, float)


def test_projector_expectation_and_lift():
    p = load_protocol("bell-bc")
    state = run_commit(p, 0)
    proj = Projector((2,), np.array([[1.0], [0.0]]))
    # the committed channel half of the bell pair is maximally mixed
    assert proj.expectation(state) == pytest.approx(0.5, abs=1e-12)
    lifted = proj.lifted((0, 1, 2))
    assert lifted.shape == (8, 4)
    np.testing.assert_allclose(lifted @ lifted.conj().T,
                               np.kron(np.eye(4), np.diag([1.0, 0.0])), atol=0)


def _expectation_reading(monkeypatch, value):
    """What ``Projector.expectation`` reads when <psi, P psi> comes out as ``value``."""
    proj, state = Projector((0,), np.eye(2)), qcore.zero_state(1)
    monkeypatch.setattr(qcore, "_apply_matrix", lambda amps, matrix, qubits, n: value * amps)
    return proj.expectation(state)


@pytest.mark.parametrize("value, read", [
    (-1e-10, 0.0), (-document.PROBABILITY_DUST, 0.0), (0.25, 0.25), (1.0 + 1e-10, 1.0 + 1e-10)])
def test_expectation_reads_negative_dust_as_zero(monkeypatch, value, read):
    assert _expectation_reading(monkeypatch, value) == read


@pytest.mark.parametrize("value", [-2e-9, -0.5, math.nan])
def test_expectation_below_the_dust_is_a_broken_invariant(monkeypatch, value):
    with pytest.raises(InvariantViolation, match="is not a probability"):
        _expectation_reading(monkeypatch, value)


@pytest.mark.parametrize("command", ["simulate", "cointoss"])
def test_every_command_reads_probabilities_through_the_rule(monkeypatch, capsys, command):
    # simulate and cointoss once read expectations raw, and printed them
    monkeypatch.setattr(qcore, "_apply_matrix", lambda amps, matrix, qubits, n: -1e-3 * amps)
    name = "ideal-ct" if command == "cointoss" else "bell-bc"
    assert cli.main([command, "--protocol", name]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"internal invariant violated: projector expectation -0\.00\d+ "
                        r"is not a probability\n", captured.err)


def test_reduced_state_helper_consistency():
    p = load_protocol("bell-bc")
    state = run_commit(p, 0)
    rho = partial_trace(state, bob_holding(p, commit_custody(p)))
    assert rho.dim == 2 ** len(bob_holding(p, commit_custody(p)))


@pytest.mark.parametrize("keys, built", [
    (("accept_b0", "accept_b1"), 2),   # one per key, no identity
    (("accept_b0",), 2),               # the key, then the identity for accept_b1
    ((), 1),                           # one identity shared by both
])
def test_identity_accept_projector_is_built_only_for_a_missing_key(monkeypatch, keys, built):
    constructed = []
    real = Projector.__post_init__
    monkeypatch.setattr(Projector, "__post_init__",
                        lambda self: constructed.append(self) or real(self))
    spec = {"qubits": [1, 2], "accept_states": ["00", "01", "10", "11"]}
    p = parse_protocol(minimal_doc(verify={key: spec for key in keys}))
    assert len(constructed) == built
    assert len(p.verification) == 2
    # Bob's qubit and the channel are the default qubits
    for proj in p.verification:
        lifted = proj.lifted((1, 2))
        np.testing.assert_array_equal(lifted @ lifted.conj().T, np.eye(4))


def test_accept_states_rules_form_the_dense_recipe_bit_for_bit(monkeypatch, perfbench_gen):
    # V V^dagger of the parsed isometry is C^dagger diag(mask) C, in every
    # bit, on every accept_states rule: purify's matrix rows and Bob's
    # acceptance values stay those of the dense recipe
    parsed = []
    real = document._parse_projector

    def spy(spec, scope, loc, **kwargs):
        rule = real(spec, scope, loc, **kwargs)
        parsed.append((spec, scope, rule))
        return rule

    monkeypatch.setattr(document, "_parse_projector", spy)
    docs = [resolve_document(name)[0] for name in BUILTIN_NAMES]
    docs += [*perfbench_gen.ladder_documents(1).values(),
             *perfbench_gen.coin_documents(1, 16).values()]
    for doc in docs:
        (parse_coin_protocol if doc.get("kind") == "coin-toss" else parse_protocol)(doc)
    checked = 0
    for spec, scope, rule in parsed:
        if "accept_states" not in spec:
            continue
        gates = document._parse_ops(spec.get("gates", []), scope, "gates", rule.qubits, "")
        circuit = qcore._circuit_matrix(gates, rule.qubits)
        mask = np.zeros(len(circuit))
        mask[[int(state, 2) for state in spec["accept_states"]]] = 1.0
        assert rule.isometry.shape == (len(circuit), len(spec["accept_states"]))
        np.testing.assert_array_equal(rule.matrix, circuit.conj().T @ (mask[:, None] * circuit))
        checked += 1
    assert checked == 42


def test_rank_one_rule_on_twelve_qubits_parses_to_one_column():
    p = parse_protocol(minimal_doc(
        qubits={"alice": 1, "bob": 11, "channel": 1},
        commit_rounds=[{"actor": "alice", "ops": [{"gate": "X", "targets": [12]}]}],
        open_rounds=[{"actor": "bob", "ops": [{"gate": "X", "targets": [12]}]}],
        verify={"accept_b0": {"accept_states": ["0" * 12]}}))
    accept = p.verification[0]
    assert accept.qubits == tuple(range(1, 13))
    assert accept.isometry.shape == (4096, 1)
    assert accept.isometry[0, 0] == 1 and not np.any(accept.isometry[1:])
    assert p.verification[1].isometry.shape == (2, 2)


def test_matrix_literal_takes_its_eigenvectors_of_eigenvalue_one():
    plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    p = parse_protocol(minimal_doc(verify={"accept_b0": {"qubits": [2], "matrix": plus}}))
    accept = p.verification[0]
    assert accept.isometry.shape == (2, 1)
    np.testing.assert_allclose(accept.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


@pytest.mark.parametrize("matrix, message", [
    ([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]], "is not idempotent"),
    ([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], "is not Hermitian"),
    ([[[1.0, 0.0]]], r"matrix shape \(1, 1\) does not match 1 qubits"),
], ids=["half-identity", "not-hermitian", "shape"])
def test_matrix_literal_that_is_no_projector_is_refused_at_matrix(matrix, message):
    doc = minimal_doc(verify={"accept_b0": {"qubits": [2], "matrix": matrix}})
    with pytest.raises(ProtocolError, match=rf"^verify\.accept_b0\.matrix: projector {message}"):
        parse_protocol(doc)


@pytest.mark.parametrize("isometry, message", [
    (np.array([[1.0], [1.0]]), "is not an isometry"),
    (np.eye(4), r"isometry shape \(4, 4\) does not match 1 qubits"),
    (np.array([[math.nan], [0.0]]), "is not an isometry"),
    (np.array([[math.inf], [0.0]]), "is not an isometry"),
], ids=["unnormalised", "shape", "nan", "inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_projector_refuses_a_matrix_that_is_no_isometry(isometry, message):
    with pytest.raises(InvariantViolation, match=message):
        Projector((0,), isometry)


@pytest.mark.parametrize("bad", [0.5, True, np.True_])
def test_projector_refuses_a_non_integer_qubit(bad):
    with pytest.raises(InvariantViolation, match="is not an integer"):
        Projector((bad,), np.array([[1.0], [0.0]]))
    assert Projector((np.int64(2),), np.array([[1.0], [0.0]])).qubits == (2,)


@pytest.mark.parametrize("bad", [0.7, True, np.True_])
def test_measure_op_refuses_a_non_integer_target(bad):
    with pytest.raises(InvariantViolation, match="is not an integer"):
        MeasureOp((bad,), "m")
    assert MeasureOp((np.int16(1), 0), "m").targets == (1, 0)


# 1 alice + 13 bob + 1 channel qubits and no verify key: Bob's default
# qubits are 14 wide, where a dense identity projector takes 4 GiB
WIDE_WITHOUT_VERIFY = {
    "name": "wide-open",
    "qubits": {"alice": 1, "bob": 13, "channel": 1},
    "commit_rounds": [{"actor": "alice", "ops": [{"gate": "H", "targets": [0]},
                                                 {"gate": "CX", "targets": [0, 14]}]}],
    "open_rounds": [{"actor": "bob", "ops": [{"gate": "X", "targets": [1]}]}],
}

def test_wide_document_without_verify_runs_in_bounded_memory(tmp_path, cli_under_1_gib):
    doc = tmp_path / "wide.yaml"
    doc.write_text(yaml.safe_dump(WIDE_WITHOUT_VERIFY), encoding="utf-8")
    commands = ("purify", "attack", "simulate", "fidelity")
    runs = cli_under_1_gib([[command, "--protocol", str(doc), "--out", str(tmp_path / "out")]
                            for command in commands])
    codes = {command: code for command, (code, _) in zip(commands, runs)}
    assert codes["purify"] == 0, runs
    assert all(code in (0, 2) for code in codes.values()), runs
    # exit 2 here must be a refusal, not a caught MemoryError
    assert not any("out of memory" in text for _, text in runs), runs


def test_purify_round_trip_without_verify_keeps_the_simulate_report(perfbench_gen, tmp_path):
    ladder = perfbench_gen.ladder_documents(1, sizes=(13,))
    for doc in (minimal_doc(), ladder["ladder-n13-open"]):
        assert "verify" not in doc
        original, purified = tmp_path / "original.yaml", tmp_path / "purified.yaml"
        original.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert cli.main(["purify", "--protocol", str(original), "--out", str(purified)]) == 0
        reports = []
        for path in (original, purified):
            out = tmp_path / "report.json"
            assert cli.main(["simulate", "--protocol", str(path), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


# --- the one qubit-list and actor readers ---------------------------------

def five_qubit_doc(**extra):
    """Alice 0, Bob 1-2, the channel 3 and Alice's declared ancilla 4."""
    doc = {
        "name": "five",
        "qubits": {"alice": 1, "bob": 2, "channel": 1},
        "ancillas": ["alice"],
        "commit_rounds": [{"actor": "alice", "ops": [{"gate": "X", "targets": [3]}]}],
        "open_rounds": [{"actor": "bob", "ops": [{"gate": "X", "targets": [3]}]}],
    }
    doc.update(extra)
    return doc


def _accept(qubits):
    return {"verify": {"accept_b0": {"qubits": qubits, "accept_states": ["0"]}}}


def _alice_round(targets=(3,), actor="alice"):
    return {"commit_rounds": [{"actor": actor, "ops": [{"gate": "X", "targets": targets}]}]}


@pytest.mark.parametrize("extra, message", [
    (_accept(["1"]), "verify.accept_b0.qubits: qubits must be integers"),
    (_accept([True]), "verify.accept_b0.qubits: qubits must be integers"),
    (_accept([9]), "verify.accept_b0.qubits: qubit 9 outside the 5-qubit register"),
    (_accept([-1]), "verify.accept_b0.qubits: qubit -1 outside the 5-qubit register"),
    (_accept([0]), "verify.accept_b0.qubits: qubit 0 is outside the allowed holding"),
    (_accept([4]), "verify.accept_b0.qubits: qubit 4 is outside the allowed holding"),
    (_accept([2, 1]), "verify.accept_b0.qubits: qubits must be strictly increasing"),
    (_accept([1, 1]), "verify.accept_b0.qubits: qubits must be strictly increasing"),
    (_accept([]), "verify.accept_b0.qubits: qubits must be strictly increasing"),
    (_alice_round(["3"]), "commit_rounds[0].ops[0].targets: targets must be integers"),
    (_alice_round([7]),
     "commit_rounds[0].ops[0].targets: target 7 outside the 5-qubit register"),
    (_alice_round([1]), "commit_rounds[0].ops[0].targets: target 1 is outside "
                        "alice's machine or the channel"),
    (_alice_round(actor="carol"),
     "commit_rounds[0].actor: actor must be alice or bob, got 'carol'"),
    (_alice_round(actor=3), "commit_rounds[0].actor: expected a string"),
    ({"ancillas": ["alice", "carol"]},
     "ancillas[1]: ancilla owner must be alice or bob, got 'carol'"),
    ({"ancillas": [None]}, "ancillas[0]: expected a string"),
], ids=["qubit-str", "qubit-bool", "qubit-past-register", "qubit-negative",
        "qubit-alices", "qubit-alices-ancilla", "qubits-decreasing", "qubits-repeat",
        "qubits-empty", "target-str", "target-past-register", "target-not-allowed",
        "actor-unknown", "actor-not-str", "owner-unknown", "owner-not-str"])
def test_qubit_list_and_actor_messages_are_pinned(extra, message):
    parse_protocol(five_qubit_doc())
    with pytest.raises(ProtocolError) as refused:
        parse_protocol(five_qubit_doc(**extra))
    assert str(refused.value) == message


def _ops(*ops):
    return {"commit_rounds": [{"actor": "alice", "ops": list(ops)}]}


def _verify(**spec):
    return {"verify": {"accept_b0": {"qubits": [1], **spec}}}


def _coin_alice(rules):
    """ideal-ct with Alice's outcome rules replaced by ``rules``."""
    data, _ = resolve_document("ideal-ct")
    return {**data, "outcomes": {**data["outcomes"], "alice": rules}}


_RY = {"gate": "RY", "targets": [0]}
_CONTROLLED = {"gate": "X", "targets": [0], "control_classical": "m"}
_DIAG = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
_RULE0, _RULE1 = ({"qubits": [0], "accept_states": [bit]} for bit in "01")
_ZERO = {"qubits": [0], "zero": True}


@pytest.mark.parametrize("doc, overrides, message", [
    (five_qubit_doc(**_ops({**_MEASURE, "measure": 1})), None,
     "commit_rounds[0].ops[0].measure: measure must be the literal true"),
    (five_qubit_doc(**_ops({**_MEASURE, "targets": []})), None,
     "commit_rounds[0].ops[0]: measurement needs at least one target"),
    (five_qubit_doc(initial={"alice0": [_CONTROLLED]}), None,
     "initial.alice0[0].control_classical: classical controls are not allowed here"),
    (five_qubit_doc(**_ops(_CONTROLLED)), None,
     "commit_rounds[0].ops[0].control_classical: classical control references "
     "unknown or later result 'm'"),
    (five_qubit_doc(**_ops(_CONTROLLED, _MEASURE)), None,
     "commit_rounds[0].ops[0].control_classical: classical control references "
     "unknown or later result 'm'"),
    (five_qubit_doc(**_ops({"gate": "X", "targets": [0], "matrix": _DIAG})), None,
     "commit_rounds[0].ops[0]: X gate takes no matrix"),
    (five_qubit_doc(**_ops(_RY)), None,
     "commit_rounds[0].ops[0]: RY requires an angle parameter"),
    (five_qubit_doc(**_ops({"gate": "CX", "targets": [0]})), None,
     "commit_rounds[0].ops[0]: CX takes 2 target(s), got 1"),
    (five_qubit_doc(**_verify(zero=True)), None,
     "verify.accept_b0.zero: zero projectors are not allowed here"),
    (_coin_alice({"0": _RULE0, "1": _RULE1, "invalid": {**_ZERO, "zero": "true"}}), None,
     "outcomes.alice.invalid.zero: zero must be the literal true"),
    (_coin_alice({"0": _RULE0, "1": _RULE1, "invalid": {**_ZERO, "gates": []}}), None,
     "outcomes.alice.invalid.gates: zero takes no gates"),
    (five_qubit_doc(**_verify(matrix=_DIAG, gates=[])), None,
     "verify.accept_b0.gates: give either a matrix or a gate list, not both"),
    (five_qubit_doc(**_verify()), None,
     "verify.accept_b0: projector spec needs exactly one of: matrix, accept_states, zero"),
    (five_qubit_doc(**_verify(matrix=_DIAG, accept_states=["0"])), None,
     "verify.accept_b0: projector spec needs exactly one of: matrix, accept_states, zero"),
    (five_qubit_doc(**_verify(accept_states=["01"])), None,
     "verify.accept_b0.accept_states: accept state '01' is not a 1-bit string"),
    (five_qubit_doc(**_verify(accept_states=["0", "0"])), None,
     "verify.accept_b0.accept_states: accept state '0' repeats"),
    (five_qubit_doc(**_verify(matrix=[])), None,
     "verify.accept_b0.matrix: empty matrix literal"),
    (five_qubit_doc(**_ops({**_RY, "angle": True})), None,
     "commit_rounds[0].ops[0].angle: angle must be a number or expression string"),
    (five_qubit_doc(**_ops({**_RY, "angle": [1]})), None,
     "commit_rounds[0].ops[0].angle: angle must be a number or expression string"),
    (five_qubit_doc(**_ops({**_RY, "angle": "f(1)"})), None,
     "commit_rounds[0].ops[0].angle: unsupported construct in angle 'f(1)' (numbers, "
     "parameter names, +, -, *, /, ** only)"),
    (five_qubit_doc(), {"phi": 1.0}, "params: override for undeclared parameter 'phi'"),
    # 0 and "0" are two YAML keys, one label
    (_coin_alice({0: _RULE0, "0": _RULE0, "1": _RULE1, "invalid": _ZERO}), None,
     "outcomes.alice: outcome labels repeat"),
], ids=["measure-not-true", "measure-no-target", "control-in-initial", "control-unknown",
        "control-before-measure", "matrix-on-x", "ry-no-angle", "cx-one-target",
        "zero-in-verify", "zero-not-true", "zero-with-gates", "matrix-and-gates",
        "no-form", "two-forms", "accept-state-width", "accept-state-repeats",
        "empty-matrix", "angle-bool", "angle-list", "angle-call", "override-undeclared",
        "labels-repeat"])
def test_parser_refusals_are_pinned_with_their_location(doc, overrides, message):
    parse = parse_coin_protocol if doc.get("kind") == "coin-toss" else parse_protocol
    with pytest.raises(ProtocolError) as refused:
        parse(doc, param_overrides=overrides)
    assert str(refused.value) == message


def test_coin_rules_and_rounds_read_through_the_same_readers():
    data, _ = resolve_document("ideal-ct")
    rule = {"qubits": [5], "accept_states": ["0"]}
    outcomes = {**data["outcomes"], "bob": {**data["outcomes"]["bob"], "0": rule}}
    with pytest.raises(ProtocolError) as refused:
        parse_coin_protocol({**data, "outcomes": outcomes})
    assert str(refused.value) == "outcomes.bob.0.qubits: qubit 5 outside the 3-qubit register"
    rounds = [{**data["rounds"][0], "actor": "Alice"}, *data["rounds"][1:]]
    with pytest.raises(ProtocolError) as refused:
        parse_coin_protocol({**data, "rounds": rounds})
    assert str(refused.value) == "rounds[0].actor: actor must be alice or bob, got 'Alice'"


@pytest.mark.parametrize("run", [
    lambda p: run_commit(p, 0),
    lambda p: protocol.open_state(p, qcore.zero_state(p.partition.num_qubits)),
    lambda p: epr_attack(p),
], ids=["run_commit", "open_state", "epr_attack"])
def test_unpurified_protocol_is_refused_naming_purify_protocol(run):
    with pytest.raises(ValueError, match="needs a measurement-free protocol; run "
                                         "purify_protocol first$"):
        run(load_protocol("bb84-bc"))


@pytest.mark.parametrize("name", ["ladder-n16-alice-big", "ladder-n16-bob-big"])
def test_kernel_calls_peak_at_two_registers_above_their_inputs(perfbench_gen, name,
                                                               registers_above_start):
    # counted, not timed: a gate call makes its two work buffers and the
    # state it returns adopts one of them; a projector's expectation reads
    # the register block by block, with no register-sized temporary
    p = parse_protocol(perfbench_gen.ladder_documents(1, sizes=(16,))[name])
    assert p.open_rounds and p.partition.num_qubits == 16
    for b in (0, 1):
        state, commit = registers_above_start(lambda: run_commit(p, b), 16)
        opened, opening = registers_above_start(lambda: protocol.open_state(p, state), 16)
        _, expectation = registers_above_start(lambda: p.verification[b].expectation(opened), 16)
        assert commit <= 2.05 and opening <= 2.05 and expectation < 1, (
            commit, opening, expectation)


@pytest.mark.parametrize("name", ["bb84-bc", "ladder-n14-alice-big"])
def test_a_state_donated_to_the_open_rounds_is_spent(perfbench_gen, name):
    # a caller that does not donate keeps its state, bytes and all; one that
    # donates reads the same acceptance, and any later read of it raises
    if name == "bb84-bc":
        p = purify_protocol(load_protocol(name))
    else:
        p = parse_protocol(perfbench_gen.ladder_documents(1, sizes=(14,))[name])
    for b in (0, 1):
        kept, donated = run_commit(p, b), run_commit(p, b)
        want = kept.amplitudes.tobytes()
        opened = protocol.open_state(p, kept)
        assert kept.amplitudes.tobytes() == want
        assert protocol.run_open(p, kept, b) == p.verification[b].expectation(opened)
        assert protocol.run_open(p, donated, b, donate=True) == protocol.run_open(p, kept, b)
        assert kept.amplitudes.tobytes() == want
        with pytest.raises(InvariantViolation, match="donated"):
            protocol.open_state(p, donated)
