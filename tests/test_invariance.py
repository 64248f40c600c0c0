"""Report numbers that must not move under transformations that change
nothing physical: renaming qubits inside a party, and inserting a gate pair
that cancels.  Each test runs the CLI on a seeded generated document and on
its transform, and compares the two JSON reports field by field."""

import copy
import json

import numpy as np
import pytest
import yaml

from qcheat import cli

COMMANDS = {"bit-commitment": ("attack", "simulate", "fidelity"),
            "coin-toss": ("cointoss",)}
NUMBER_TOL = 1e-12


def documents(gen, seed):
    """Ladder rungs n = 6, 9 and 13 and both 8-round coins of ``seed``."""
    docs = dict(gen.ladder_documents(seed, sizes=(6, 9, 13)))
    docs.update(gen.coin_documents(seed, rounds=8))
    return docs


def reports(tmp_path, doc) -> dict:
    path, out = tmp_path / "doc.yaml", tmp_path / "report.json"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    found = {}
    for command in COMMANDS[doc["kind"]]:
        assert cli.main([command, "--protocol", str(path), "--out", str(out)]) == 0, command
        found[command] = json.loads(out.read_text(encoding="utf-8"))
    return found


def assert_same_report(want, got, where="", tol=NUMBER_TOL):
    """Equal strings, booleans, nulls and shapes; numbers within ``tol``."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same_report(want[key], got[key], f"{where}.{key}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            assert_same_report(w, g, f"{where}[{i}]", tol)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= tol, (where, want, got)
    else:
        assert got == want, where


def party_ranges(doc) -> dict:
    counts = doc["qubits"]
    alice, bob = counts["alice"], counts["bob"]
    return {"alice": range(alice), "bob": range(alice, alice + bob),
            "channel": range(alice + bob, alice + bob + counts["channel"])}


def relabel(node, perm):
    """``node`` with register index q renamed ``perm[q]`` everywhere.

    Gate targets keep their listed order.  A projector's qubit list is
    re-sorted and each accept state's bits move with their qubits.
    """
    if isinstance(node, list):
        return [relabel(item, perm) for item in node]
    if not isinstance(node, dict):
        return node
    node = {key: relabel(value, perm) for key, value in node.items()}
    if "targets" in node:
        node["targets"] = [int(perm[q]) for q in node["targets"]]
    if isinstance(node.get("qubits"), list):
        old = node["qubits"]
        order = sorted(range(len(old)), key=lambda i: perm[old[i]])
        node["qubits"] = [int(perm[old[i]]) for i in order]
        if "accept_states" in node:
            node["accept_states"] = ["".join(s[i] for i in order)
                                     for s in node["accept_states"]]
    return node


def party_permutation(doc, rng) -> np.ndarray:
    """A permutation of the register that maps each party onto itself."""
    perm = np.arange(sum(doc["qubits"].values()))
    for span in party_ranges(doc).values():
        perm[span.start:span.stop] = rng.permutation(np.array(span))
    return perm


def op_lists(doc) -> list:
    """(op list, qubits its actor may touch) for every initial list and round."""
    parties = party_ranges(doc)
    lists = []
    for key, ops in doc.get("initial", {}).items():
        touch = list(parties["alice" if key.startswith("alice") else "bob"])
        if key == "bob_channel":
            touch += list(parties["channel"])
        lists.append((ops, touch))
    for key in ("commit_rounds", "open_rounds", "rounds"):
        lists.extend((rnd["ops"], list(parties[rnd["actor"]])) for rnd in doc.get(key, []))
    return lists


def with_cancelling_pairs(doc, rng, count):
    """``doc`` with ``count`` pairs X X or RY(t) RY(-t), each inserted at a
    random place of a random op list on a qubit its actor may touch."""
    doc = copy.deepcopy(doc)
    lists = op_lists(doc)
    for _ in range(count):
        ops, touch = lists[rng.integers(len(lists))]
        qubit = int(rng.choice(touch))
        if rng.integers(2):
            pair = [{"gate": "X", "targets": [qubit]} for _ in range(2)]
        else:
            angle = float(rng.uniform(-np.pi, np.pi))
            pair = [{"gate": "RY", "targets": [qubit], "angle": a} for a in (angle, -angle)]
        at = int(rng.integers(len(ops) + 1))
        ops[at:at] = pair
    return doc


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeling_qubits_inside_each_party_moves_no_number(perfbench_gen, tmp_path, seed):
    rng = np.random.default_rng([seed, 11])
    for name, doc in documents(perfbench_gen, seed).items():
        perm = party_permutation(doc, rng)
        assert not np.array_equal(perm, np.arange(perm.size)), name
        assert_same_report(reports(tmp_path, doc),
                           reports(tmp_path, relabel(doc, perm)), name)


@pytest.mark.parametrize("seed", [1, 2])
def test_a_cancelling_gate_pair_moves_no_number(perfbench_gen, tmp_path, seed):
    rng = np.random.default_rng([seed, 12])
    for name, doc in documents(perfbench_gen, seed).items():
        want = reports(tmp_path, doc)
        for _ in range(2):
            assert_same_report(want, reports(tmp_path, with_cancelling_pairs(doc, rng, 4)),
                               name)

