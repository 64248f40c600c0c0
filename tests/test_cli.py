"""Command-line interface: reports, formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from qcheat import attack as attacks
from qcheat import cli
from qcheat import fidelity as fid
from qcheat import protocol as proto
from qcheat.cointoss import parse_coin_protocol
from qcheat.protocol import parse_protocol
from qcheat.qcore import InvariantViolation

ROOT = Path(__file__).resolve().parent.parent


def run_to_file(tmp_path, args, name="out.txt"):
    target = tmp_path / name
    code = cli.main(args + ["--out", str(target)])
    return code, target.read_bytes()


# --- rendering helpers -----------------------------------------------------

def test_float_rendering_is_shortest_roundtrip():
    assert cli._format_float(0.5) == "0.5"
    assert cli._format_float(1.0 / 3.0) == "0.33333333333333331"
    assert float(cli._format_float(math.pi)) == math.pi


def test_json_rendering_matches_stdlib_semantics():
    report = cli.Report({"a": 1, "b": [0.5, None, True], "c": "x\"y"})
    text = cli._render_json(report.value) + "\n"
    assert json.loads(text) == {"a": 1, "b": [0.5, None, True], "c": 'x"y'}


# --- stdout reports ----------------------------------------------------------

def test_simulate_json_fields(tmp_path, capsys):
    assert cli.main(["simulate", "--protocol", "bell-bc"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "simulate"
    assert doc["protocol"] == "bell-bc"
    assert doc["channel_custody"] == "bob"
    assert doc["delta"] <= 1e-12
    assert doc["honest_accept"]["0"] == pytest.approx(1.0)
    assert doc["cross_accept"]["commit0_open1"] == pytest.approx(0.0, abs=1e-12)


def test_simulate_computes_each_honest_commit_state_once(monkeypatch, capsys):
    calls = []
    real = proto.run_commit
    monkeypatch.setattr(proto, "run_commit", lambda p, b: calls.append(b) or real(p, b))
    assert cli.main(["simulate", "--protocol", "bb84-bc"]) == 0
    assert calls == [0, 1]
    capsys.readouterr()


def test_attack_json_fields(capsys):
    assert cli.main(["attack", "--protocol", "leaky-bc(0.5)"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fidelity"] == pytest.approx(math.cos(0.5), abs=1e-9)
    assert doc["cheat_accept"] == pytest.approx(math.cos(0.5) ** 2, abs=1e-9)
    assert doc["honest_accept"]["1"] == pytest.approx(1.0)


def test_attack_csv_shape(tmp_path):
    code, raw = run_to_file(tmp_path, [
        "attack", "--protocol", "bell-bc", "--output", "csv"], "a.csv")
    assert code == 0
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    assert rows[0] == ["protocol", "channel_custody", "delta", "fidelity",
                       "achieved_overlap", "honest_accept_0", "honest_accept_1",
                       "cheat_accept"]
    assert len(rows) == 2 and rows[1][0] == "bell-bc"


def test_fidelity_routes_and_samples(capsys):
    assert cli.main(["fidelity", "--protocol", "leaky-bc(0.8)",
                     "--povm-samples", "25", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fidelity_trace"] == pytest.approx(math.cos(0.8), abs=1e-9)
    assert abs(doc["gap_purification"]) <= 1e-7
    assert abs(doc["gap_povm"]) <= 1e-7
    assert doc["povm_samples"] == 25 and doc["seed"] == 3
    assert doc["povm_sample_min"] >= doc["fidelity_povm"] - 1e-8
    assert doc["povm_samples_ok"] is True


def _counted_commits(monkeypatch) -> list:
    calls = []
    real = proto.run_commit
    monkeypatch.setattr(proto, "run_commit", lambda p, b: calls.append(b) or real(p, b))
    return calls


@pytest.mark.parametrize("flags, code, err", [
    (["--povm-samples", "-3"], 2, "error: --povm-samples must be nonnegative\n"),
    (["--povm-samples", "5", "--seed", "-1"], 2, "error: --seed must be nonnegative\n"),
    (["--seed", "-1"], 0, ""),
], ids=["negative-samples", "negative-seed", "unused-seed"])
def test_fidelity_flags_are_checked_before_any_state(monkeypatch, capsys, flags, code, err):
    calls = _counted_commits(monkeypatch)
    assert cli.main(["fidelity", "--protocol", "bb84-bc", *flags]) == code
    assert capsys.readouterr().err == err
    assert calls == ([] if code else [0, 1])


def test_sampling_over_the_byte_budget_is_refused_before_any_commit(
        tmp_path, perfbench_gen, cli_under_1_gib, monkeypatch, capsys):
    docs = perfbench_gen.ladder_documents(1, sizes=(13, 19))
    paths = {}
    for name in ("ladder-n13-open", "ladder-n19-open"):
        path = tmp_path / f"{name}.yaml"
        path.write_text(perfbench_gen.to_yaml(docs[name]), encoding="utf-8")
        paths[name] = str(path)
    wide = ["fidelity", "--protocol", paths["ladder-n19-open"], "--povm-samples", "1"]
    # Bob holds 10 qubits: one 1025-outcome measurement on 1024 x 1024
    # matrices is refused from the document; 7 qubits (two samples) still run
    runs = cli_under_1_gib([
        wide, ["fidelity", "--protocol", paths["ladder-n13-open"], "--povm-samples", "2"]])
    (code, text), (narrow_code, narrow_text) = runs
    assert code == 2, text
    assert text == ("error: --povm-samples: one random measurement on Bob's 10 qubits needs "
                    f"an estimated {fid.povm_sample_bytes(1024, 1025)} bytes, over the "
                    f"{fid.POVM_BYTE_BUDGET}-byte sampling budget\n")
    assert narrow_code == 0, narrow_text
    assert json.loads(narrow_text)["povm_samples_ok"] is True
    calls = _counted_commits(monkeypatch)
    assert cli.main(wide) == 2
    assert calls == []
    capsys.readouterr()


@pytest.mark.parametrize("samples", [10 ** 11, fid.POVM_BYTE_BUDGET // fid.OVERLAP_BYTES])
def test_a_count_whose_overlaps_fill_the_budget_is_refused_before_any_commit(
        monkeypatch, capsys, samples):
    # bell-bc: Bob holds 2 qubits, so one 5-outcome sample is 5120 bytes
    calls = _counted_commits(monkeypatch)
    assert cli.main(["fidelity", "--protocol", "bell-bc", "--povm-samples", str(samples)]) == 2
    assert capsys.readouterr().err == (
        f"error: --povm-samples: {samples} overlaps take {fid.OVERLAP_BYTES * samples} bytes, "
        f"which with one measurement's estimated {fid.povm_sample_bytes(4, 5)} is over the "
        f"{fid.POVM_BYTE_BUDGET}-byte sampling budget\n")
    assert calls == []


def test_sample_overlaps_hold_their_overlaps_within_the_byte_budget(monkeypatch):
    # 3 samples' stacks and 40 overlaps fill the budget: chunks of 3, not of 4
    dim, count = 2, 40
    monkeypatch.setattr(fid, "POVM_BYTE_BUDGET",
                        3 * fid.povm_sample_bytes(dim, 3) + fid.OVERLAP_BYTES * count)
    sizes = []
    real = fid.random_povms
    monkeypatch.setattr(fid, "random_povms",
                        lambda d, m, n, rng: sizes.append(n) or real(d, m, n, rng))
    rho = np.eye(dim) / dim
    assert fid.sample_overlaps(rho, rho, 3, count, 1).shape == (count,)
    assert sizes == [3] * 13 + [1]


def test_fidelity_takes_the_trace_route_once(monkeypatch, capsys):
    calls = []
    real = fid.fidelity_trace

    def counted(rho0, rho1):
        calls.append(1)
        return real(rho0, rho1)
    # every qcheat module that binds the function, the fidelity module included
    for module in [m for name, m in sys.modules.items() if name.startswith("qcheat")]:
        if getattr(module, "fidelity_trace", None) is real:
            monkeypatch.setattr(module, "fidelity_trace", counted)
    assert cli.main(["fidelity", "--protocol", "bb84-bc"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_cointoss_contradiction_report(capsys):
    assert cli.main(["cointoss", "--protocol", "ideal-ct"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "contradiction"
    assert doc["rounds"] == 4 and len(doc["steps"]) == 4
    assert doc["mutual_information"] <= 1e-9
    assert doc["message"] == "contradiction: mutual information 0 at N=0"
    assert doc["outcome_distribution"]["alice"]["0"] == pytest.approx(1.0)


def test_cointoss_not_ideal_report(capsys):
    assert cli.main(["cointoss", "--protocol", "guess-ct"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not_ideal"
    assert doc["witness_round"] == 3
    assert doc["witness_pair"] == "f01"
    assert doc["witness_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_json_points(capsys):
    assert cli.main(["sweep", "--protocol", "leaky-bc",
                     "--grid", "0:1:3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["param"] == "theta"
    assert [pt["value"] for pt in doc["points"]] == [0.0, 0.5, 1.0]
    for pt in doc["points"]:
        assert pt["error"] is None
        assert pt["fidelity"] == pytest.approx(math.cos(pt["value"]), abs=1e-8)


def test_sweep_csv_error_rows(tmp_path):
    # theta is finite, but leaky-bc's angle -2*theta overflows to -inf
    code, raw = run_to_file(tmp_path, [
        "sweep", "--protocol", "leaky-bc", "--grid", "1e308:1e308:1",
        "--output", "csv"], "s.csv")
    assert code == 0
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    assert rows[0][0] == "param" and rows[0][-1] == "error"
    assert rows[1][0] == "theta"
    assert rows[1][2:8] == [""] * 6 and rows[1][8]


def test_purify_output_reparses(tmp_path, capsys):
    assert cli.main(["purify", "--protocol", "bb84-bc"]) == 0
    text = capsys.readouterr().out
    p = parse_protocol(text)
    assert not p.has_measurements
    assert p.ancilla_owners == ("alice",)


def test_purify_coin_document(capsys):
    assert cli.main(["purify", "--protocol", "ideal-ct"]) == 0
    q = parse_coin_protocol(capsys.readouterr().out)
    assert q.num_rounds == 4


# --- determinism -------------------------------------------------------------

CASES = [
    ["simulate", "--protocol", "bell-bc"],
    ["attack", "--protocol", "leaky-bc(0.3)", "--output", "csv"],
    ["sweep", "--protocol", "leaky-bc", "--grid", "0:1.5:4"],
    ["fidelity", "--protocol", "bb84-bc", "--povm-samples", "10", "--seed", "9"],
    ["cointoss", "--protocol", "ideal-ct", "--output", "csv"],
    ["purify", "--protocol", "bb84-bc"],
]


@pytest.mark.parametrize("args", CASES, ids=[c[0] for c in CASES])
def test_repeated_runs_are_byte_identical(tmp_path, args):
    _, first = run_to_file(tmp_path, args, "one")
    _, second = run_to_file(tmp_path, args, "two")
    assert first == second
    assert first.endswith(b"\n")


# --- exit codes --------------------------------------------------------------

def test_unknown_protocol_is_input_error(capsys):
    assert cli.main(["attack", "--protocol", "no-such"]) == 2
    assert "error:" in capsys.readouterr().err


def test_coin_document_to_attack_is_input_error(capsys):
    assert cli.main(["attack", "--protocol", "ideal-ct"]) == 2
    assert "cointoss" in capsys.readouterr().err


def test_commitment_document_to_cointoss_is_input_error():
    assert cli.main(["cointoss", "--protocol", "bell-bc"]) == 2


@pytest.mark.parametrize("command, name, message", [
    (["simulate"], "ideal-ct", "is a coin-toss document; use the cointoss command"),
    (["fidelity"], "ideal-ct", "is a coin-toss document; use the cointoss command"),
    (["sweep", "--grid", "0:1:2"], "guess-ct",
     "is a coin-toss document; use the cointoss command"),
    (["cointoss"], "bell-bc",
     "is a bit-commitment document; use simulate, attack, sweep, or fidelity"),
], ids=["simulate", "fidelity", "sweep", "cointoss"])
def test_wrong_kind_refusals_are_pinned(capsys, command, name, message):
    assert cli.main(command + ["--protocol", name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name!r} {message}\n"


QUBITS = {"alice": 1, "bob": 1, "channel": 1}
COMMANDS = [
    ["simulate"], ["attack"], ["fidelity"], ["sweep", "--grid", "0:1:2"],
    ["cointoss"], ["purify"],
]


@pytest.mark.parametrize("kind", ["foo", ["coin-toss"]], ids=["string", "list"])
@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_unknown_kind_is_input_error_at_kind(tmp_path, capsys, command, kind):
    doc = {"name": "odd", "kind": kind, "qubits": QUBITS, "params": {"theta": 0.5}}
    path = tmp_path / "odd.yaml"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(command + ["--protocol", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kind: unknown document kind ")
    assert "parse_" not in err


OVERFLOW = {"actor": "alice", "ops": [{"gate": "RY", "targets": [2], "angle": "10**400"}]}
COMMITMENT = {"name": "big", "qubits": QUBITS, "commit_rounds": [OVERFLOW]}
COIN = {"name": "big", "kind": "coin-toss", "qubits": QUBITS, "rounds": [OVERFLOW],
        "outcomes": {}}


@pytest.mark.parametrize("command, doc", [
    ("attack", COMMITMENT), ("purify", COMMITMENT), ("cointoss", COIN)])
def test_angle_overflow_is_input_error_at_angle(tmp_path, capsys, command, doc):
    path = tmp_path / "big.yaml"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main([command, "--protocol", str(path)]) == 2
    assert "ops[0].angle: expected a finite number" in capsys.readouterr().err


def _commitment(**fields):
    doc = {"name": "bounded", "qubits": dict(QUBITS), "params": {"theta": 0.5},
           "commit_rounds": [{"actor": "alice",
                              "ops": [{"gate": "RY", "targets": [0], "angle": "theta"}]}]}
    return {**doc, **fields}


def _coin(**fields):
    rules = {actor: {"0": {"qubits": [q], "accept_states": ["0"]},
                     "1": {"qubits": [q], "accept_states": ["1"]},
                     "invalid": {"qubits": [q], "zero": True}}
             for actor, q in (("alice", 0), ("bob", 1))}
    doc = {"name": "bounded", "kind": "coin-toss", "qubits": dict(QUBITS),
           "rounds": [{"actor": "alice", "ops": [{"gate": "H", "targets": [0]}]}],
           "outcomes": rules}
    return {**doc, **fields}


# Alice's two rules read 7 and 6 of her 13 qubits: each fits the side cap,
# the 13-qubit space the completeness check lifts them to does not
_WIDE_RULES = {
    "alice": {"0": {"qubits": list(range(7)), "accept_states": ["0" * 7]},
              "1": {"qubits": list(range(7, 13)), "accept_states": ["0" * 6]},
              "invalid": {"qubits": [0], "zero": True}},
    "bob": {"0": {"qubits": [13], "accept_states": ["0"]},
            "1": {"qubits": [13], "accept_states": ["1"]},
            "invalid": {"qubits": [13], "zero": True}},
}
_TWICE = [{"actor": "alice", "ops": [{"gate": "X", "targets": [0]}]},
          {"actor": "alice", "ops": [{"gate": "Z", "targets": [0]}],
           "allow_consecutive": "no"}]
_NOT_A_FLAG = [{"actor": "alice", "ops": [{"gate": "H", "targets": [0]}],
                "allow_consecutive": 1}]


# Documents the parser must refuse, with the field each error names: a
# register or matrix too wide to build, a non-boolean allow_consecutive,
# projector qubits out of order, and a section that is present but not a
# mapping.  Built, the first four would exhaust memory, the fifth would ask
# for a 64 GiB identity and the sixth for a 1 GiB lift.
@pytest.mark.parametrize("doc, location", [
    (_commitment(qubits={"alice": 10 ** 9, "bob": 1, "channel": 1}), "qubits"),
    (_commitment(ancillas=["alice"] * 100_000), "qubits"),
    (_coin(qubits={"alice": 10 ** 9, "bob": 1, "channel": 1}), "qubits"),
    (_coin(ancillas=["bob"] * 100_000), "qubits"),
    (_commitment(qubits={"alice": 1, "bob": 15, "channel": 1},
                 verify={"accept_b0": {"accept_states": ["0" * 16]}}), "verify.accept_b0"),
    (_coin(qubits={"alice": 13, "bob": 1, "channel": 1}, outcomes=_WIDE_RULES),
     "outcomes.alice"),
    (_commitment(commit_rounds=_TWICE), "commit_rounds[1].allow_consecutive"),
    (_coin(rounds=_NOT_A_FLAG), "rounds[0].allow_consecutive"),
    (_commitment(verify={"accept_b0": {"qubits": [2, 1], "zero": True}}),
     "verify.accept_b0.qubits"),
    (_commitment(params=5), "params"),
    (_commitment(verify=[]), "verify"),
    (_coin(initial=False), "initial"),
], ids=["commitment-qubits", "commitment-ancillas", "coin-qubits", "coin-ancillas",
        "wide-verify", "wide-coin-rules", "commitment-flag", "coin-flag",
        "unsorted-verify", "scalar-params", "list-verify", "false-initial"])
def test_refused_documents_exit_2_at_a_field_under_1_gib(tmp_path, cli_under_1_gib,
                                                        doc, location):
    path = tmp_path / "doc.yaml"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # every command of the document's kind
    commands = COMMANDS[4:] if doc.get("kind") == "coin-toss" else COMMANDS[:4] + COMMANDS[5:]
    runs = cli_under_1_gib([command + ["--protocol", str(path)] for command in commands])
    for command, (code, text) in zip(commands, runs):
        assert code == 2, (command, text)
        assert text.startswith(f"error: {location}: "), (command, text)


def test_out_of_memory_is_input_error_under_1_gib(tmp_path, cli_under_1_gib):
    # a rank-1 verify projector on 12 qubits parses to one 4096-row column,
    # so the commands that only score it run; fidelity writes out Bob's
    # 12-qubit holding and purify emits the 4096 x 4096 matrix, which take
    # more than 1 GiB
    doc = _commitment(qubits={"alice": 1, "bob": 11, "channel": 1},
                      verify={"accept_b0": {"accept_states": ["0" * 12]}})
    path = tmp_path / "doc.yaml"
    path.write_text(json.dumps(doc), encoding="utf-8")
    commands = COMMANDS[:4] + COMMANDS[5:]
    runs = cli_under_1_gib([command + ["--protocol", str(path)] for command in commands])
    for command, (code, text) in zip(commands, runs):
        if command[0] in ("simulate", "attack", "sweep"):
            assert code == 0, (command, text)
        else:
            assert code == 2, (command, text)
            assert text.startswith("error: out of memory ("), (command, text)


_CLI_WITH_LOADER = ("import sys, yaml; from qcheat import cli, protocol; "
                    "protocol._YAML_LOADER = getattr(yaml, sys.argv[1]); "
                    "sys.exit(cli.main(sys.argv[2:]))")
_LOADER_NAMES = ["SafeLoader"] + (["CSafeLoader"] if yaml.__with_libyaml__ else [])


def _long_angle(terms):
    return _commitment(initial={"alice0": [{"gate": "RY", "targets": [0],
                                            "angle": "+".join(["1"] * terms)}]})


# read as a parameter, pi = 0 would make RY(pi) the identity and hide the bit
_PI_PARAMETER = """\
name: pi-parameter
qubits: {alice: 1, bob: 1, channel: 1}
params: {pi: 0}
initial:
  alice1: [{gate: RY, targets: [0], angle: pi}]
commit_rounds:
  - {actor: alice, ops: [{gate: SWAP, targets: [0, 2]}]}
open_rounds: []
verify:
  accept_b0: {accept_states: ["00"]}
  accept_b1: {accept_states: ["01"]}
"""
_LONG_ANGLE = ("error: initial.alice0[0].angle: angle expression "
               "'1+1+1+1+1+1+...1+1+1+1+1+1+1' is longer than 500 characters\n")


# Documents that once ended in a crash or a traceback: nesting that overflows
# libyaml's recursive composer (SIGSEGV) or PyYAML's (RecursionError), angle
# sums too long for the evaluator or for ast.parse, an int with more digits
# than int() converts, and a parameter that would shadow pi.  Each runs in
# its own child so a crash shows as its exit.
@pytest.mark.parametrize("text, command, err", [
    ("a: " + "[" * 30_000 + "]" * 30_000, ["simulate"],
     "error: YAML syntax error at line 1, column 66: found a node nested deeper than "
     "64 levels\n  in \"<unicode string>\", line 1, column 66\n"),
    (json.dumps(_long_angle(1_500)), ["simulate"], _LONG_ANGLE),
    (json.dumps(_long_angle(5_000)), ["simulate"], _LONG_ANGLE),
    ("a: " + "1" * 5_000, ["simulate"],
     "error: YAML value error at line 1, column 4: cannot read "
     "'111111111111...1111111111111' as !!int\n"),
    (_PI_PARAMETER, ["sweep", "--grid", "0:1:2"],
     "error: params.pi: pi names the constant in angles and cannot be declared\n"),
], ids=["deep-nesting", "angle-1500-terms", "angle-5000-terms", "int-5000-digits",
        "pi-parameter"])
@pytest.mark.parametrize("loader", _LOADER_NAMES)
def test_hostile_documents_exit_2_at_a_location_in_a_child(tmp_path, loader, text,
                                                          command, err):
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", _CLI_WITH_LOADER, loader, *command,
                           "--protocol", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


@pytest.mark.parametrize("source", ["leaky-bc(nan)", "leaky-bc(inf)"])
def test_non_finite_positional_parameter_is_input_error(capsys, source):
    assert cli.main(["attack", "--protocol", source]) == 2
    assert "error: params.theta: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:inf:3", "nan:nan:1", "-inf:0:2", "-1e308:1e308:3"])
def test_non_finite_grid_is_input_error(tmp_path, capsys, grid):
    target = tmp_path / "s.json"
    assert cli.main(["sweep", "--protocol", "leaky-bc", f"--grid={grid}",
                     "--out", str(target)]) == 2
    assert not target.exists()
    assert "grid bounds and their span must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1.0", "1"])
def test_ideal_tol_outside_unit_interval_is_input_error(capsys, tol):
    assert cli.main(["cointoss", "--protocol", "guess-ct", "--ideal-tol", tol]) == 2
    assert "--ideal-tol must be a number in [0, 1)" in capsys.readouterr().err


def test_ideal_tol_inside_unit_interval_runs(capsys):
    assert cli.main(["cointoss", "--protocol", "ideal-ct", "--ideal-tol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "contradiction"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_emitter_refuses_non_finite_floats(value):
    with pytest.raises(InvariantViolation, match="non-finite"):
        cli._json_scalar(value)
    with pytest.raises(InvariantViolation, match="non-finite"):
        cli._csv_cell(value)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_is_internal_error(monkeypatch, tmp_path, capsys, fmt):
    monkeypatch.setattr(cli, "_cmd_attack", lambda ns: cli.Report({"delta": math.nan}))
    target = tmp_path / "out"
    assert cli.main(["attack", "--protocol", "bell-bc", "--output", fmt,
                     "--out", str(target)]) == 3
    assert not target.exists()
    assert "non-finite" in capsys.readouterr().err


def test_malformed_grid_is_input_error(capsys):
    assert cli.main(["sweep", "--protocol", "leaky-bc", "--grid", "0:1"]) == 2
    assert cli.main(["sweep", "--protocol", "leaky-bc", "--grid", "0:1:0"]) == 2
    assert cli.main(["sweep", "--protocol", "leaky-bc", "--grid", "a:b:c"]) == 2
    capsys.readouterr()


def test_sweep_on_a_numeric_parameter_key(tmp_path, capsys):
    # YAML reads the key 1 as an int; the parser declares the parameter "1"
    doc, _ = proto.resolve_document("bell-bc")
    path = tmp_path / "numeric.yaml"
    path.write_text(proto.document_to_yaml({**doc, "params": {1: 0.5}}), encoding="utf-8")
    for extra in ([], ["--param", "1"]):
        assert cli.main(["sweep", "--protocol", str(path), "--grid", "0:1:2", *extra]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["param"] == "1"
        assert [pt["error"] for pt in report["points"]] == [None, None]


def test_unknown_sweep_param_is_input_error():
    assert cli.main(["sweep", "--protocol", "leaky-bc", "--grid", "0:1:2",
                     "--param", "phi"]) == 2


def test_unwritable_output_is_input_error(tmp_path):
    target = tmp_path / "missing" / "out.json"
    assert cli.main(["simulate", "--protocol", "bell-bc",
                     "--out", str(target)]) == 2


def test_argparse_failures_map_to_input_error(capsys):
    assert cli.main([]) == 2
    assert cli.main(["attack"]) == 2
    assert cli.main(["attack", "--protocol", "bell-bc", "--output", "xml"]) == 2
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_invariant_violation_maps_to_internal_error(monkeypatch, capsys):
    def boom(p, custody=None):
        raise InvariantViolation("forced")
    monkeypatch.setattr(attacks, "epr_attack", boom)
    monkeypatch.setattr(cli, "attacks", attacks)
    assert cli.main(["attack", "--protocol", "bell-bc"]) == 3
    assert "invariant" in capsys.readouterr().err
