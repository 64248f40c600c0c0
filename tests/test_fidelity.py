"""The three fidelity routes against closed-form oracles and each other."""

import math

import numpy as np
import pytest

from qcheat.fidelity import (
    Povm,
    fidelity_povm,
    fidelity_purification,
    fidelity_trace,
    povm_overlap,
    povm_overlaps,
    random_povm,
    sample_overlaps,
)
from qcheat.qcore import DensityMatrix, InvariantViolation, partial_trace


def random_density(rng, dim, rank):
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_pair(rng, dim):
    r0 = int(rng.integers(1, dim + 1))
    r1 = int(rng.integers(1, dim + 1))
    return random_density(rng, dim, r0), random_density(rng, dim, r1)


# --- closed-form oracles -----------------------------------------------

def test_identical_states():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4, 3)
    assert fidelity_trace(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_pure_pure_is_overlap():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        want = abs(np.vdot(v, w))
        got = fidelity_trace(np.outer(v, v.conj()), np.outer(w, w.conj()))
        assert got == pytest.approx(want, abs=1e-12)


def test_mixed_vs_pure_oracle():
    # F(I/2, |0><0|) = sqrt(1/2)
    got = fidelity_trace(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert got == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_commuting_states_are_classical():
    # diagonal states reduce to the Bhattacharyya coefficient
    got = fidelity_trace(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))
    want = math.sqrt(0.5 * 0.75) + math.sqrt(0.5 * 0.25)
    assert want == pytest.approx(0.9659258262890683, abs=1e-15)
    assert got == pytest.approx(want, abs=1e-12)


def test_orthogonal_supports_vanish():
    assert fidelity_trace(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) < 1e-8


def test_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, b = random_pair(rng, 4)
        assert fidelity_trace(a, b) == pytest.approx(fidelity_trace(b, a), abs=1e-10)


def test_accepts_density_matrix_objects():
    rho = DensityMatrix(np.eye(2) / 2)
    assert fidelity_trace(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity_trace(np.eye(2) / 2, np.eye(4) / 4)


@pytest.mark.parametrize("read", [
    fidelity_trace, fidelity_purification, fidelity_povm,
    lambda r0, r1: povm_overlaps(r0, r1, np.array([[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]])),
    lambda r0, r1: sample_overlaps(r0, r1, 3, 2, 7),
], ids=["trace", "purification", "povm", "povm_overlaps", "sample_overlaps"])
def test_every_pair_reader_refuses_a_dimension_mismatch(read):
    with pytest.raises(ValueError, match=r"^dimension mismatch: \(2, 2\) vs \(4, 4\)$"):
        read(np.eye(2) / 2, np.eye(4) / 4)


# --- route agreement ----------------------------------------------------

def test_three_routes_agree():
    rng = np.random.default_rng(29)
    for _ in range(60):
        dim = int(rng.choice([2, 4, 8]))
        a, b = random_pair(rng, dim)
        t = fidelity_trace(a, b)
        p, _ = fidelity_purification(a, b)
        v, _ = fidelity_povm(a, b)
        assert abs(t - p) < 1e-7
        assert abs(t - v) < 1e-7


# --- purification route -------------------------------------------------

def test_purification_witnesses_reduce_correctly():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a, b = random_pair(rng, 4)
        value, (psi0, psi1) = fidelity_purification(a, b)
        # system qubits come first, ancilla after
        np.testing.assert_allclose(partial_trace(psi0, (0, 1)).entries, a, atol=1e-10)
        np.testing.assert_allclose(partial_trace(psi1, (0, 1)).entries, b, atol=1e-10)
        assert value == pytest.approx(abs(np.vdot(psi0.amplitudes, psi1.amplitudes)),
                                      abs=1e-12)


def test_purification_overlap_is_maximal():
    # rotating either ancilla never beats the aligned overlap
    rng = np.random.default_rng(43)
    a, b = random_pair(rng, 4)
    value, (psi0, psi1) = fidelity_purification(a, b)
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        big = np.kron(np.eye(4), q)   # ancilla-local on qubits (2, 3)
        rotated = abs(np.vdot(psi0.amplitudes, big @ psi1.amplitudes))
        assert rotated <= value + 1e-8


def test_purification_rejects_non_power_of_two():
    rho = np.eye(3) / 3
    with pytest.raises(ValueError):
        fidelity_purification(rho, rho)


# --- measurement route --------------------------------------------------

def test_povm_route_returns_attaining_measurement():
    rng = np.random.default_rng(47)
    a, b = random_pair(rng, 4)
    value, povm = fidelity_povm(a, b)
    assert povm_overlap(a, b, povm) == pytest.approx(value, abs=1e-12)
    total = np.sum(povm.elements, axis=0)
    np.testing.assert_allclose(total, np.eye(4), atol=1e-8)


def test_povm_is_the_minimum():
    rng = np.random.default_rng(53)
    for _ in range(10):
        dim = int(rng.choice([2, 4]))
        a, b = random_pair(rng, dim)
        value, _ = fidelity_povm(a, b)
        for _ in range(50):
            other = random_povm(dim, dim + 1, rng)
            assert povm_overlap(a, b, other) >= value - 1e-8


def test_povm_orthogonal_pure_states():
    value, povm = fidelity_povm(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert value < 1e-8
    assert len(povm.elements) == 2


def test_random_povm_is_deterministic():
    one = random_povm(4, 5, 99)
    two = random_povm(4, 5, 99)
    other = random_povm(4, 5, 100)
    for e1, e2 in zip(one.elements, two.elements):
        np.testing.assert_array_equal(e1, e2)
    assert any(np.max(np.abs(e1 - e3)) > 1e-6
               for e1, e3 in zip(one.elements, other.elements))


def test_povm_validation():
    with pytest.raises(InvariantViolation):
        Povm((np.diag([1.0, 0.0]),))                       # incomplete
    with pytest.raises(InvariantViolation):
        Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))  # not PSD
    with pytest.raises(InvariantViolation):
        Povm(())
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    assert len(povm.elements) == 2 and povm.elements[0].shape == (2, 2)


def test_random_povm_rejects_bad_counts():
    with pytest.raises(ValueError):
        random_povm(0, 3, 1)
    with pytest.raises(ValueError):
        random_povm(2, 0, 1)
