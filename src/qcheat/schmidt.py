"""Schmidt decompositions and local cheating-unitary synthesis.

A bipartite pure state whose two halves give Alice the same reduced state
on Bob's side for two different inputs can be rotated from one to the
other by a unitary acting on Alice's side alone.  This module builds that
rotation, and its best-effort generalisation when the reduced states
merely overlap: the synthesized local unitary maximises the overlap with
the target state, and the achieved overlap equals the fidelity of the two
Bob-side reductions.

The rotation only has to carry one Schmidt support onto the other.  When
the two states' supports on Alice's side span fewer dimensions than her
side has, ``UhlmannRotation`` finds a basis of them from a sketch and
takes its SVD, polar factor and cheat state on that basis; it checks the
basis's residual first and otherwise works on the full side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .qcore import (
    UNITARY_TOL,
    InvariantViolation,
    PureState,
    _apply_matrix,
    _cut,
    _isometry_residual,
    _merge,
    _qubit_indices,
    _split,
    is_unitary,
    partial_trace,
)

__all__ = [
    "SchmidtDecomposition",
    "cheating_unitary_ideal",
    "schmidt_decompose",
    "uhlmann_unitary",
]

COEFF_CUTOFF = 1e-10
BASIS_TOL = 1e-8
WEIGHT_TOL = 1e-9
IDEAL_REDUCTION_TOL = 1e-8
# _support_basis: sketch columns beyond the rank bound, the sketch's seed,
# and the residual a basis must meet; F then moves by at most twice it
SKETCH_OVERSAMPLE = 4
SKETCH_SEED = 2011
SUPPORT_RESIDUAL_TOL = 1e-12
# amplitudes per column block of _support_basis's residual (2 MiB): of
# 2^12..2^18, the fastest on 2^19 and 2^24 amplitudes, where the residual
# took 0.85-0.95 and 0.6-0.7 of the time of one register-sized temporary
RESIDUAL_BLOCK = 2 ** 17


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
            if not _isometry_residual(basis.conj().T) <= BASIS_TOL:
                raise InvariantViolation(f"{name}-side basis is not orthonormal within {BASIS_TOL}")
        for arr in (coeffs, a_basis, b_basis):
            arr.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "a_basis", a_basis)
        object.__setattr__(self, "b_basis", b_basis)
        object.__setattr__(self, "a_qubits", _qubit_indices(self.a_qubits, InvariantViolation))
        object.__setattr__(self, "b_qubits", _qubit_indices(self.b_qubits, InvariantViolation))
        object.__setattr__(self, "num_qubits", len(self.a_qubits) + len(self.b_qubits))

    @property
    def rank(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> PureState:
        """Reassemble the state on the original qubit ordering."""
        mat = (self.a_basis.T * self.coefficients) @ self.b_basis
        return PureState(_merge(self.a_qubits, self.b_qubits, mat))


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


def _support_basis(m0: np.ndarray, m1: np.ndarray, rank_qubits: int):
    """(Q, Q^dagger m0, Q^dagger m1) for an orthonormal basis Q of the joint
    column space of ``m0`` and ``m1``, or None when none narrower is found.

    ``rank_qubits`` bounds log2 of each matrix's rank.  One QR of the sketch
    [m0 Omega, m1 Omega], with Omega a fixed-seed Gaussian of 2^rank_qubits
    + SKETCH_OVERSAMPLE columns, gives Q (the randomized range finder of
    Halko, Martinsson & Tropp, SIAM Review 53(2), 2011).  Q is kept only
    when it has fewer columns than the matrices have rows and
    ||m_b - Q Q^dagger m_b||_F <= SUPPORT_RESIDUAL_TOL for both: the bound
    is an estimate, and that measured residual is what is trusted.
    """
    rows, cols = m0.shape
    width = 2 ** min(rank_qubits, rows.bit_length()) + SKETCH_OVERSAMPLE
    if 2 * width >= rows:
        return None
    omega = np.random.default_rng(SKETCH_SEED).standard_normal((cols, width))
    basis = np.linalg.qr(np.hstack([m0 @ omega, m1 @ omega]))[0]
    adjoint = basis.conj().T
    reduced = (adjoint @ m0, adjoint @ m1)
    # the squares of Q (Q^dagger m) - m summed over column blocks, so no
    # temporary as large as m is formed
    step = max(1, RESIDUAL_BLOCK // rows)
    for m, c in zip((m0, m1), reduced):
        squares = 0.0
        for j in range(0, cols, step):
            block = basis @ c[:, j:j + step]
            block -= m[:, j:j + step]
            squares += np.vdot(block, block).real
        if not math.sqrt(squares) <= SUPPORT_RESIDUAL_TOL:
            return None
    return (basis, *reduced)


class _Factors(NamedTuple):
    """``UhlmannRotation``'s cut, basis and SVD of the cross-Gram or core."""

    rows: tuple
    cols: tuple
    basis: np.ndarray | None      # Q, or None on the full side
    reduced: np.ndarray | None    # Q^dagger M0 when there is a basis
    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray


class UhlmannRotation:
    """Alice's best rotation of ``state0`` toward ``state1`` on ``a_side``.

    With M0 and M1 the commit states' coefficient matrices, rows on
    ``a_side``, the fidelity of the two reductions on the rest is the sum of
    the singular values of the cross-Gram M1 M0^dagger (Uhlmann's theorem),
    and the polar factor W of that matrix rotates ``state0`` to the overlap
    F with ``state1``.  When ``_support_basis`` finds a basis Q of the
    commit states' Schmidt support on ``a_side``, the same is computed on
    the core (Q^dagger M1)(Q^dagger M0)^dagger and the cheat state's matrix
    is Q W (Q^dagger M0); otherwise on the full cross-Gram, and it is W M0.
    ``rank_qubits`` bounds log2 of the Schmidt rank; None tries no basis.

    The one SVD runs when ``fidelity`` or ``cheat_state`` is first read;
    the polar factor is formed only by ``cheat_state``.
    """

    def __init__(self, state0: PureState, state1: PureState, a_side, rank_qubits=None):
        self._states = (state0, state1)
        self._a_side = a_side
        self._rank_qubits = rank_qubits

    @cached_property
    def _factors(self) -> _Factors:
        state0, state1 = self._states
        rows, cols, m0 = _split(state0, self._a_side)
        a1, _, m1 = _split(state1, self._a_side)
        if rows != a1 or state0.num_qubits != state1.num_qubits:
            raise ValueError("states must live on the same register and bipartition")
        support = None
        if self._rank_qubits is not None:
            support = _support_basis(m0, m1, self._rank_qubits)
        basis, c0, c1 = support or (None, m0, m1)
        left, singular, right = np.linalg.svd(c1 @ c0.conj().T)
        return _Factors(rows, cols, basis, None if basis is None else c0, left, singular, right)

    @property
    def fidelity(self) -> float:
        return float(np.sum(self._factors.singular))

    def polar_factor(self) -> np.ndarray:
        """W = left @ right from the SVD: 2^|A| wide, or as wide as the basis."""
        return self._factors.left @ self._factors.right

    def cheat_state(self) -> PureState:
        """``state0`` rotated by the polar factor on ``a_side``."""
        factors = self._factors
        rotation = self.polar_factor()
        if not is_unitary(rotation):
            raise InvariantViolation(f"polar factor is not unitary within {UNITARY_TOL}")
        if factors.basis is None:
            # apply_unitary's contraction: the state U on the register gives, bit for bit
            state0 = self._states[0]
            return PureState._of(_apply_matrix(state0.amplitudes, rotation, factors.rows,
                                               state0.num_qubits))
        coeffs = (factors.basis @ rotation) @ factors.reduced
        return PureState._of(_merge(factors.rows, factors.cols, coeffs))


def uhlmann_unitary(state0: PureState, state1: PureState, a_side):
    """Best A-side rotation of ``state0`` toward ``state1``.

    Returns
    -------
    (unitary, fidelity) : the 2^|A| x 2^|A| unitary U and the fidelity of
        the two B-side reductions, read off the same SVD as the sum of the
        cross-Gram's singular values (Uhlmann's theorem).  It equals the
        overlap |<state1| (U x I) |state0>| that U achieves.  Applying U
        never changes the B-side reduction of any state.  The full SVD
        supplies a deterministic orthonormal completion on the kernel, so
        U is always a genuine unitary.
    """
    rotation = UhlmannRotation(state0, state1, a_side)
    return rotation.polar_factor(), rotation.fidelity


def cheating_unitary_ideal(state0: PureState, state1: PureState, a_side) -> np.ndarray:
    """A-side unitary mapping state0 to state1 exactly, up to global phase.

    Requires the B-side reductions of the two states to agree entrywise
    within 1e-8; when they merely overlap, use ``uhlmann_unitary`` for the
    optimal approximate rotation instead.
    """
    a, b = _cut(state0.num_qubits, a_side)
    red0 = partial_trace(state0, b).entries
    red1 = partial_trace(state1, b).entries
    gap = float(np.max(np.abs(red0 - red1)))
    if gap > IDEAL_REDUCTION_TOL:
        raise ValueError(
            f"B-side reductions differ by {gap:.3e} entrywise (tolerance "
            f"{IDEAL_REDUCTION_TOL}); the states are not locally equivalent -- "
            "use uhlmann_unitary for the optimal approximate rotation")
    return uhlmann_unitary(state0, state1, a)[0]
