"""Schmidt decompositions and local cheating-unitary synthesis.

A bipartite pure state whose two halves give Alice the same reduced state
on Bob's side for two different inputs can be rotated from one to the
other by a unitary acting on Alice's side alone.  This module builds that
rotation, and its best-effort generalisation when the reduced states
merely overlap: the synthesized local unitary maximises the overlap with
the target state, and the achieved overlap equals the fidelity of the two
Bob-side reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import InvariantViolation, PureState, _split, partial_trace

COEFF_CUTOFF = 1e-10
BASIS_TOL = 1e-8
WEIGHT_TOL = 1e-9
IDEAL_REDUCTION_TOL = 1e-8


@dataclass(frozen=True)
class SchmidtDecomposition:
    """state = sum_k coefficients[k] * a_basis[k] (x) b_basis[k].

    Coefficients are positive, sorted in nonincreasing order, and their
    squares sum to one.  Basis rows are orthonormal vectors on the sorted
    A-side / B-side qubit index order.
    """

    a_qubits: tuple
    b_qubits: tuple
    coefficients: np.ndarray
    a_basis: np.ndarray          # shape (rank, 2^|A|), rows are vectors
    b_basis: np.ndarray          # shape (rank, 2^|B|)
    num_qubits: int = field(init=False)

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        a_basis = np.array(self.a_basis, dtype=complex)
        b_basis = np.array(self.b_basis, dtype=complex)
        rank = coeffs.size
        if a_basis.shape[0] != rank or b_basis.shape[0] != rank:
            raise InvariantViolation("basis row count does not match coefficient count")
        if not (np.all(coeffs > 0) and np.all(np.diff(coeffs) <= 0)):
            raise InvariantViolation("coefficients must be positive and nonincreasing")
        if not abs(float(np.sum(coeffs ** 2)) - 1.0) <= WEIGHT_TOL:
            raise InvariantViolation(f"squared coefficients must sum to 1 within {WEIGHT_TOL}")
        for name, basis in (("a", a_basis), ("b", b_basis)):
            gram = basis @ basis.conj().T
            if not np.max(np.abs(gram - np.eye(rank))) <= BASIS_TOL:
                raise InvariantViolation(f"{name}-side basis is not orthonormal within {BASIS_TOL}")
        for arr in (coeffs, a_basis, b_basis):
            arr.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "a_basis", a_basis)
        object.__setattr__(self, "b_basis", b_basis)
        object.__setattr__(self, "a_qubits", tuple(int(q) for q in self.a_qubits))
        object.__setattr__(self, "b_qubits", tuple(int(q) for q in self.b_qubits))
        object.__setattr__(self, "num_qubits", len(self.a_qubits) + len(self.b_qubits))

    @property
    def rank(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> PureState:
        """Reassemble the state on the original qubit ordering."""
        mat = (self.a_basis.T * self.coefficients) @ self.b_basis
        tensor = mat.reshape((2,) * self.num_qubits)
        order = self.a_qubits + self.b_qubits
        inverse = np.argsort(order)
        return PureState(tensor.transpose(inverse).reshape(-1))


def schmidt_decompose(state: PureState, a_side) -> SchmidtDecomposition:
    """Schmidt decomposition across the (a_side, rest) bipartition.

    Coefficients below 1e-10 are dropped; the squares of the survivors
    are exactly the nonzero eigenvalues of either reduced state.
    """
    a, b, mat = _split(state, a_side)
    left, coeffs, right = np.linalg.svd(mat, full_matrices=False)
    keep = coeffs > COEFF_CUTOFF
    return SchmidtDecomposition(
        a_qubits=a,
        b_qubits=b,
        coefficients=coeffs[keep],
        a_basis=left[:, keep].T,
        b_basis=right[keep, :],
    )


def _polar_rotation(state0: PureState, state1: PureState, a_side) -> tuple:
    """Polar unitary of the A-side cross-Gram matrix M1 M0^dagger.

    Returns (unitary, singular values of the Gram).  The full SVD supplies
    a deterministic orthonormal completion on the kernel, so the result is
    always a genuine unitary.
    """
    a0, _, m0 = _split(state0, a_side)
    a1, _, m1 = _split(state1, a_side)
    if a0 != a1 or state0.num_qubits != state1.num_qubits:
        raise ValueError("states must live on the same register and bipartition")
    left, singular, right = np.linalg.svd(m1 @ m0.conj().T)
    return left @ right, singular


def _coefficient_fidelity(m0: np.ndarray, m1: np.ndarray) -> float:
    """Fidelity of the unit-trace states m0 m0^dagger and m1 m1^dagger.

    ``m0`` and ``m1`` are coefficient matrices of two purifications, with
    rows on the system and any number of columns each; then F is the trace
    norm of m0^dagger m1 (Uhlmann's theorem), as on ``_polar_rotation``'s
    cross-Gram.  Rounding can push it past 1, so it is clamped there.
    """
    return min(1.0, float(np.sum(np.linalg.svd(m0.conj().T @ m1, compute_uv=False))))


def uhlmann_unitary(state0: PureState, state1: PureState, a_side):
    """Best A-side rotation of ``state0`` toward ``state1``.

    Returns
    -------
    (unitary, fidelity) : the 2^|A| x 2^|A| unitary U and the fidelity of
        the two B-side reductions, read off the same SVD as the sum of the
        cross-Gram's singular values (Uhlmann's theorem).  It equals the
        overlap |<state1| (U x I) |state0>| that U achieves.  Applying U
        never changes the B-side reduction of any state.
    """
    unitary, singular = _polar_rotation(state0, state1, a_side)
    return unitary, float(np.sum(singular))


def cheating_unitary_ideal(state0: PureState, state1: PureState, a_side) -> np.ndarray:
    """A-side unitary mapping state0 to state1 exactly, up to global phase.

    Requires the B-side reductions of the two states to agree entrywise
    within 1e-8; when they merely overlap, use ``uhlmann_unitary`` for the
    optimal approximate rotation instead.
    """
    a, b, _ = _split(state0, a_side)
    red0 = partial_trace(state0, b).entries
    red1 = partial_trace(state1, b).entries
    gap = float(np.max(np.abs(red0 - red1)))
    if gap > IDEAL_REDUCTION_TOL:
        raise ValueError(
            f"B-side reductions differ by {gap:.3e} entrywise (tolerance "
            f"{IDEAL_REDUCTION_TOL}); the states are not locally equivalent -- "
            "use uhlmann_unitary for the optimal approximate rotation")
    return _polar_rotation(state0, state1, a)[0]
