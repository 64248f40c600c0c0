"""End-to-end acceptance checks, one per guaranteed behavior.

Each test here bundles a whole guarantee so the -v listing reads as a
checklist: shipped commitments fall inside the time budget, the attack
saturates the concealment bound on a known family and on random protocols,
the three fidelity routes agree, local synthesis is optimal, purification
is distribution-preserving, the coin induction reaches its verdicts, the
round bound is exact, and the command line is byte-deterministic.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qcheat import cli
from qcheat.attack import epr_attack
from qcheat.cointoss import (
    induction_report,
    load_coin_protocol,
    min_rounds,
    outcome_distribution,
    truncate_last_round,
    validate_walk,
)
from qcheat.fidelity import (
    fidelity_povm,
    fidelity_purification,
    fidelity_trace,
    povm_overlap,
    random_povm,
)
from qcheat.document import (
    load_protocol,
    parse_protocol,
    purify_protocol,
    resolve_document,
)
from qcheat.protocol import (
    bob_holding,
    commit_custody,
    enumerate_acceptance,
    run_commit,
    run_open,
)
from qcheat.qcore import PureState, apply_unitary, partial_trace
from qcheat.schmidt import schmidt_decompose, uhlmann_unitary


def haar_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PureState(v / np.linalg.norm(v))


def random_density(rng, dim, rank=None):
    g = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def matrix_node(rng, targets):
    u = haar_unitary(rng, 2 ** len(targets))
    rows = [[[float(e.real), float(e.imag)] for e in row] for row in u]
    return {"gate": "RAW", "targets": list(targets), "matrix": rows}


def rotation_node(rng, qubit):
    return {"gate": "RY", "targets": [qubit],
            "angle": float(rng.uniform(0.0, math.pi))}


# 1. the shipped commitments break perfectly inside the time budget ---------

def test_shipped_commitments_break_within_one_second():
    for name in ("bell-bc", "bb84-bc"):
        p = load_protocol(name)
        if p.has_measurements:
            p = purify_protocol(p)
        start = time.perf_counter()
        rep = epr_attack(p)
        elapsed = time.perf_counter() - start

        assert rep.delta <= 1e-9, f"{name}: delta {rep.delta}"
        # committed 0, then opened 1 with full acceptance
        assert abs(rep.cheat_accept - 1.0) <= 1e-6, f"{name}: {rep.cheat_accept}"

        custody = commit_custody(p)
        keep = bob_holding(p, custody)
        a_side = tuple(sorted(set(range(p.partition.num_qubits)) - set(keep)))
        state0 = run_commit(p, 0)
        unitary, _ = uhlmann_unitary(state0, run_commit(p, 1), a_side)
        before = partial_trace(state0, keep).entries
        after = partial_trace(apply_unitary(state0, unitary, a_side), keep).entries
        assert np.max(np.abs(after - before)) <= 1e-10, f"{name}: Bob's view moved"

        assert elapsed < 1.0, f"{name}: attack took {elapsed:.3f}s"


# 2. the attack saturates the concealment bound -----------------------------

def test_attack_saturates_concealment_on_family_and_random_protocols():
    # the angle family, where the bound is cos(theta) in closed form
    for k in range(9):
        theta = k * math.pi / 16
        doc, ov = resolve_document(f"leaky-bc({theta})")
        p = parse_protocol(doc, param_overrides=ov)
        rep = epr_attack(p)
        keep = bob_holding(p, commit_custody(p))
        fid = fidelity_trace(partial_trace(run_commit(p, 0), keep),
                             partial_trace(run_commit(p, 1), keep))
        assert abs(rep.achieved_overlap - fid) <= 1e-6
        assert abs(fid - math.cos(theta)) <= 1e-8

    # fifty seeded random 2+2+1-qubit protocols
    rng = np.random.default_rng(20210412)
    for i in range(50):
        doc = {
            "name": f"random-{i}",
            "qubits": {"alice": 2, "bob": 2, "channel": 1},
            "initial": {
                "alice0": [rotation_node(rng, 0), rotation_node(rng, 1)],
                "alice1": [rotation_node(rng, 0), rotation_node(rng, 1),
                           {"gate": "X", "targets": [0]}],
            },
            "commit_rounds": [
                {"actor": "alice", "ops": [matrix_node(rng, (0, 1)),
                                           matrix_node(rng, (1, 4))]},
                {"actor": "bob", "ops": [matrix_node(rng, (2, 4)),
                                         rotation_node(rng, 3)]},
            ],
            "open_rounds": [],
        }
        if i % 2:
            doc["commit_rounds"].append(
                {"actor": "alice", "ops": [matrix_node(rng, (0, 4))]})
        p = parse_protocol(doc)
        rep = epr_attack(p)
        keep = bob_holding(p, commit_custody(p))
        fid = fidelity_trace(partial_trace(run_commit(p, 0), keep),
                             partial_trace(run_commit(p, 1), keep))
        assert abs(rep.achieved_overlap - fid) <= 1e-6, f"protocol {i}"


# 3. the three fidelity routes agree ------------------------------------------

def test_fidelity_routes_agree_and_bound_random_measurements():
    rng = np.random.default_rng(3)
    povm_pool = {dim: [random_povm(dim, dim + 1, rng) for _ in range(200)]
                 for dim in (2, 4, 8)}
    for i in range(200):
        dim = (2, 4, 8)[i % 3]
        rank = max(1, dim // 2) if i % 4 == 0 else None
        rho0 = random_density(rng, dim, rank)
        rho1 = random_density(rng, dim, rank)

        f_tr = fidelity_trace(rho0, rho1)
        f_pur, (psi0, psi1) = fidelity_purification(rho0, rho1)
        f_pov, _ = fidelity_povm(rho0, rho1)
        assert abs(f_tr - f_pur) <= 1e-7, f"pair {i}: trace vs purification"
        assert abs(f_tr - f_pov) <= 1e-7, f"pair {i}: trace vs measurement"
        assert abs(f_pur - f_pov) <= 1e-7, f"pair {i}: purification vs measurement"

        # no random measurement undercuts the minimizer
        for povm in povm_pool[dim]:
            assert povm_overlap(rho0, rho1, povm) >= f_pov - 1e-8, f"pair {i}"

        # no purification pair beats the maximizer
        k = psi0.num_qubits // 2
        ancilla = tuple(range(k, 2 * k))
        for _ in range(50):
            alt0 = apply_unitary(psi0, haar_unitary(rng, 2 ** k), ancilla)
            alt1 = apply_unitary(psi1, haar_unitary(rng, 2 ** k), ancilla)
            moved = abs(np.vdot(alt0.amplitudes, alt1.amplitudes))
            assert moved <= f_pur + 1e-8, f"pair {i}"


# 4. local synthesis is faithful and optimal ----------------------------------

def test_schmidt_synthesis_is_faithful_and_optimal():
    rng = np.random.default_rng(4)

    # reconstruction round-trips
    for _ in range(100):
        n = int(rng.integers(2, 7))
        cut = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False)))
        state = random_state(rng, n)
        rebuilt = schmidt_decompose(state, cut).reconstruct()
        assert abs(np.vdot(state.amplitudes, rebuilt.amplitudes)) >= 1.0 - 1e-9

    # equal far-side reductions force equal coefficient spectra
    for _ in range(30):
        n = int(rng.integers(3, 6))
        a_qubits = (0, 1)
        state0 = random_state(rng, n)
        local = haar_unitary(rng, 4)
        state1 = apply_unitary(state0, local, a_qubits)
        c0 = schmidt_decompose(state0, a_qubits).coefficients
        c1 = schmidt_decompose(state1, a_qubits).coefficients
        width = max(len(c0), len(c1))
        pad0 = np.zeros(width); pad0[:len(c0)] = c0
        pad1 = np.zeros(width); pad1[:len(c1)] = c1
        np.testing.assert_allclose(pad0, pad1, atol=1e-8)

    # the synthesized unitary beats every random local unitary
    for _ in range(10):
        a_qubits = (0, 1)
        state0 = random_state(rng, 4)
        state1 = random_state(rng, 4)
        unitary, achieved = uhlmann_unitary(state0, state1, a_qubits)
        moved = apply_unitary(state0, unitary, a_qubits)
        assert abs(abs(np.vdot(state1.amplitudes, moved.amplitudes)) - achieved) <= 1e-9
        for _ in range(100):
            trial = apply_unitary(state0, haar_unitary(rng, 4), a_qubits)
            overlap = abs(np.vdot(state1.amplitudes, trial.amplitudes))
            assert achieved >= overlap - 1e-7


# 5. purification preserves every outcome distribution -----------------------

def random_measured_doc(rng, i):
    """Measurement-bearing commitment with classically controlled gates."""
    controlled = ("X", "Z", "H", "S")[i % 4]
    two_bit = i % 5 == 0
    commit_alice = [
        rotation_node(rng, 0),
        {"gate": "H", "targets": [1]},
        {"gate": "CX", "targets": [1, 3]},
        {"measure": True, "targets": [0, 1] if two_bit else [1],
         "result_id": "m"},
        {"gate": controlled, "targets": [3], "control_classical": "m"},
    ]
    if i % 3 == 0:
        commit_alice.append(rotation_node(rng, 3))
    basis = [format(v, "02b") for v in range(4)]
    picks = sorted(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
    accept0 = [basis[v] for v in picks]
    picks = sorted(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
    accept1 = [basis[v] for v in picks]
    return {
        "name": f"measured-{i}",
        "qubits": {"alice": 2, "bob": 1, "channel": 1},
        "initial": {
            "alice0": [rotation_node(rng, 0)],
            "alice1": [rotation_node(rng, 0), {"gate": "X", "targets": [0]}],
        },
        "commit_rounds": [
            {"actor": "alice", "ops": commit_alice},
            {"actor": "bob", "ops": [rotation_node(rng, 2),
                                     {"gate": "CX", "targets": [3, 2]}]},
        ],
        "open_rounds": [],
        "verify": {
            "accept_b0": {"qubits": [2, 3], "accept_states": accept0},
            "accept_b1": {"qubits": [2, 3], "accept_states": accept1},
        },
    }


def test_purified_runs_match_branch_enumeration():
    rng = np.random.default_rng(5)
    protocols = [load_protocol("bb84-bc")]
    protocols += [parse_protocol(random_measured_doc(rng, i)) for i in range(19)]
    assert len(protocols) == 20
    for i, p in enumerate(protocols):
        assert p.has_measurements
        q = purify_protocol(p)
        for b in (0, 1):
            for claim in (0, 1):
                exact = enumerate_acceptance(p, b, claim)
                lifted = run_open(q, run_commit(q, b), claim)
                # two-outcome distributions, so TV distance is the gap itself
                assert abs(lifted - exact) <= 1e-10, (i, b, claim)


# 6. the coin induction reaches both verdicts ---------------------------------

def test_coin_induction_reaches_contradiction_and_witness():
    p = load_coin_protocol("ideal-ct")
    rep = induction_report(p)
    assert rep.verdict == "contradiction"
    assert rep.rounds == 4 and len(rep.steps) == 4
    for step in rep.steps:
        assert step.triple.max_fidelity() <= 1e-8

    want = outcome_distribution(p)
    current = p
    while current.rounds:
        current = truncate_last_round(current)
        got = outcome_distribution(current)
        for actor in ("alice", "bob"):
            for label in ("0", "1", "invalid"):
                assert abs(got[actor][label] - want[actor][label]) <= 1e-8
    assert current.num_rounds == 0
    assert rep.mutual_information <= 1e-9
    assert "contradiction" in rep.message

    rep = induction_report(load_coin_protocol("guess-ct"))
    assert rep.verdict == "not_ideal"
    assert rep.witness_fidelity > 0.1


# 7. the round bound is exact and walks below it never validate --------------

def test_round_bound_is_exact_and_short_walks_fail():
    for k in range(1, 101):
        eps = Fraction(1, k)
        assert min_rounds(eps) * eps >= 1

    rng = np.random.default_rng(7)
    for _ in range(50):
        eps = Fraction(int(rng.integers(1, 500)), int(rng.integers(500, 10 ** 6)))
        n = min_rounds(eps)
        assert n * eps >= 1
        assert (n - 1) * eps < 1

    # every short trajectory fails: enumerate all 4^N per-step move patterns
    for n in range(1, 7):
        for eps in (Fraction(1, n + 1), Fraction(2, 2 * n + 1)):
            assert min_rounds(eps) > n
            for pattern in range(4 ** n):
                walk = [(Fraction(0), Fraction(0))]
                code = pattern
                for _ in range(n):
                    a, b = walk[-1]
                    if code % 4 in (1, 3):
                        a = min(a + eps, Fraction(1))
                    if code % 4 in (2, 3):
                        b = min(b + eps, Fraction(1))
                    code //= 4
                    walk.append((a, b))
                assert not validate_walk(walk, eps).ok, (n, eps, pattern)

    # tightness: the alternating ladder with exactly ceil(1/eps) steps passes
    eps = Fraction(1, 4)
    walk = [(Fraction(0), Fraction(0))]
    while walk[-1] != (1, 1):
        a, b = walk[-1]
        walk.append((min(a + eps, Fraction(1)), min(b + eps, Fraction(1))))
    assert len(walk) - 1 == min_rounds(eps)
    assert validate_walk(walk, eps).ok


# 8. the command line is byte-deterministic -----------------------------------

def test_every_cli_command_is_byte_deterministic(tmp_path):
    cases = [
        ["simulate", "--protocol", "bb84-bc"],
        ["simulate", "--protocol", "bell-bc", "--output", "csv"],
        ["attack", "--protocol", "leaky-bc(0.7)"],
        ["attack", "--protocol", "bell-bc", "--output", "csv"],
        ["sweep", "--protocol", "leaky-bc",
         "--grid", "0:1.5707963267948966:9"],
        ["sweep", "--protocol", "leaky-bc", "--grid", "0:1:5",
         "--output", "csv"],
        ["fidelity", "--protocol", "bb84-bc", "--povm-samples", "40",
         "--seed", "11"],
        ["cointoss", "--protocol", "ideal-ct"],
        ["cointoss", "--protocol", "guess-ct", "--output", "csv"],
        ["purify", "--protocol", "bb84-bc"],
    ]
    seen = set()
    for case in cases:
        seen.add(case[0])
        outputs = []
        for run in ("first", "second"):
            target = tmp_path / f"{'-'.join(case)}-{run}".replace("/", "_")
            assert cli.main(case + ["--out", str(target)]) == 0, case
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], case
        assert outputs[0], case
    assert seen == {"simulate", "attack", "sweep", "fidelity", "cointoss",
                    "purify"}
