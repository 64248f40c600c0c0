"""Schmidt decomposition and local unitary synthesis."""

import math

import numpy as np
import pytest

from qcheat.fidelity import fidelity_trace
from qcheat.qcore import GateOp, InvariantViolation, PureState, apply_gate, apply_unitary, partial_trace, zero_state
from qcheat.schmidt import (
    SchmidtDecomposition,
    cheating_unitary_ideal,
    schmidt_decompose,
    uhlmann_unitary,
)

SQ2 = 1.0 / math.sqrt(2.0)


def random_state(rng, n):
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PureState(v / np.linalg.norm(v))


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_pair():
    s = apply_gate(zero_state(2), GateOp("H", (0,)))
    return apply_gate(s, GateOp("CX", (0, 1)))


def overlap(s0, s1):
    return abs(np.vdot(s0.amplitudes, s1.amplitudes))


# --- decomposition ------------------------------------------------------

def test_bell_coefficients():
    dec = schmidt_decompose(bell_pair(), (0,))
    assert dec.rank == 2
    np.testing.assert_allclose(dec.coefficients, [SQ2, SQ2], atol=1e-12)
    assert dec.a_qubits == (0,) and dec.b_qubits == (1,)


def test_product_state_is_rank_one():
    s = apply_gate(zero_state(3), GateOp("H", (1,)))
    dec = schmidt_decompose(s, (1,))
    assert dec.rank == 1
    assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)


def test_coefficients_square_to_reduced_spectrum():
    rng = np.random.default_rng(61)
    state = random_state(rng, 5)
    dec = schmidt_decompose(state, (0, 3))
    rho = partial_trace(state, (0, 3))
    spectrum = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
    padded = np.zeros_like(spectrum)
    padded[:dec.rank] = dec.coefficients ** 2
    np.testing.assert_allclose(padded, spectrum, atol=1e-10)


def test_roundtrip_property():
    rng = np.random.default_rng(67)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        a_side = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        state = random_state(rng, n)
        dec = schmidt_decompose(state, a_side)
        assert abs(float(np.sum(dec.coefficients ** 2)) - 1.0) < 1e-9
        assert overlap(dec.reconstruct(), state) >= 1.0 - 1e-9


def test_tiny_coefficients_dropped():
    eps = 1e-12
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.sqrt(1.0 - eps ** 2)
    amps[3] = eps
    dec = schmidt_decompose(PureState(amps), (0,))
    assert dec.rank == 1


def test_decomposition_invariants():
    with pytest.raises(InvariantViolation):
        SchmidtDecomposition((0,), (1,), np.array([0.6, 0.8]),
                             np.eye(2), np.eye(2))      # increasing coefficients
    with pytest.raises(InvariantViolation):
        SchmidtDecomposition((0,), (1,), np.array([1.0, 0.5]),
                             np.eye(2), np.eye(2))      # weights sum past 1
    with pytest.raises(InvariantViolation):
        SchmidtDecomposition((0,), (1,), np.array([SQ2, SQ2]),
                             np.array([[1, 0], [1, 0]], dtype=complex), np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_decomposition_refuses_non_finite_values(bad):
    with pytest.raises(InvariantViolation):
        SchmidtDecomposition((0,), (1,), np.array([bad]), [[1, 0]], [[1, 0]])
    with pytest.raises(InvariantViolation):
        SchmidtDecomposition((0,), (1,), np.array([SQ2, SQ2]), np.eye(2), np.eye(2) * bad)


def test_split_needs_both_sides():
    state = zero_state(2)
    with pytest.raises(ValueError):
        schmidt_decompose(state, (0, 1))
    with pytest.raises(ValueError):
        schmidt_decompose(state, ())


# --- unitary synthesis --------------------------------------------------

def test_uhlmann_on_phase_flipped_bell():
    # Z on Alice's half turns the Bell pair into its phase-flipped twin
    s0 = bell_pair()
    s1 = apply_gate(bell_pair(), GateOp("Z", (0,)))
    unitary, achieved = uhlmann_unitary(s0, s1, (0,))
    assert achieved == pytest.approx(1.0, abs=1e-10)
    moved = apply_unitary(s0, unitary, (0,))
    assert overlap(moved, s1) == pytest.approx(1.0, abs=1e-10)


def test_uhlmann_achieves_reduction_fidelity():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        a_side = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        b_side = tuple(q for q in range(n) if q not in a_side)
        s0 = random_state(rng, n)
        s1 = random_state(rng, n)
        unitary, achieved = uhlmann_unitary(s0, s1, a_side)
        want = fidelity_trace(partial_trace(s0, b_side), partial_trace(s1, b_side))
        assert achieved == pytest.approx(want, abs=1e-9)
        moved = apply_unitary(s0, unitary, a_side)
        assert overlap(moved, s1) == pytest.approx(achieved, abs=1e-9)


def test_uhlmann_beats_random_local_unitaries():
    rng = np.random.default_rng(73)
    s0 = random_state(rng, 4)
    s1 = random_state(rng, 4)
    a_side = (0, 2)
    _, achieved = uhlmann_unitary(s0, s1, a_side)
    for _ in range(100):
        u = random_unitary(rng, 4)
        moved = apply_unitary(s0, u, a_side)
        assert overlap(moved, s1) <= achieved + 1e-7


def test_uhlmann_unitary_is_unitary():
    rng = np.random.default_rng(79)
    s0 = random_state(rng, 3)
    s1 = random_state(rng, 3)
    unitary, _ = uhlmann_unitary(s0, s1, (1,))
    np.testing.assert_allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-10)


def test_uhlmann_rejects_mismatched_registers():
    rng = np.random.default_rng(83)
    with pytest.raises(ValueError):
        uhlmann_unitary(random_state(rng, 2), random_state(rng, 3), (0,))


def test_ideal_requires_equal_reductions():
    s0 = bell_pair()
    s1 = apply_gate(bell_pair(), GateOp("Z", (0,)))
    unitary = cheating_unitary_ideal(s0, s1, (0,))
    moved = apply_unitary(s0, unitary, (0,))
    assert overlap(moved, s1) == pytest.approx(1.0, abs=1e-10)

    rng = np.random.default_rng(89)
    with pytest.raises(ValueError, match="uhlmann_unitary"):
        cheating_unitary_ideal(random_state(rng, 2), random_state(rng, 2), (0,))


def test_equal_reductions_give_equal_spectra():
    # a local unitary on A cannot move B's spectrum
    rng = np.random.default_rng(97)
    state = random_state(rng, 4)
    rotated = apply_unitary(state, random_unitary(rng, 4), (0, 1))
    d0 = schmidt_decompose(state, (0, 1))
    d1 = schmidt_decompose(rotated, (0, 1))
    assert d0.rank == d1.rank
    np.testing.assert_allclose(d0.coefficients, d1.coefficients, atol=1e-8)
