"""Three equivalent fidelity computations for density matrices.

The same quantity F(rho0, rho1) is exposed through three routes:

* the trace form  F = Tr sqrt(sqrt(rho1) rho0 sqrt(rho1)),
* the largest overlap between purifications of the two states, and
* the smallest Bhattacharyya overlap sum over complete measurements.

Cross-checking the three against each other is the package's main guard
against silent numerical drift, so each route is implemented
independently rather than delegating to a shared kernel.

Random measurements, which check that no complete measurement beats the
minimising one, are sampled as stacks: ``random_povms`` draws, whitens and
checks (count, outcomes, d, d) elements at once and ``povm_overlaps``
scores them.  ``sample_overlaps`` is the one loop over chunks: it runs the
two on ``povm_chunk`` samples at a time, so the peak stays within
POVM_BYTE_BUDGET.  ``povm_sample_bytes`` is one sample's share and
OVERLAP_BYTES each result's, so a caller can refuse a dimension where even
one sample is over the budget, or a count whose results leave no room for
one.  The single-measurement API (``Povm``, ``random_povm``,
``povm_overlap``) is the one-sample case of the same code, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    DensityMatrix,
    InvariantViolation,
    PureState,
    matrix_sqrt_psd,
)

__all__ = [
    "Povm",
    "fidelity_povm",
    "fidelity_purification",
    "fidelity_trace",
    "povm_overlap",
    "povm_overlaps",
    "random_povm",
    "random_povms",
]

SUPPORT_CUTOFF = 1e-10
POVM_PSD_TOL = 1e-10
POVM_COMPLETE_TOL = 1e-8
# Bytes one chunk of sampled measurements may hold at its peak.
POVM_BYTE_BUDGET = 1 << 28
# (outcomes, d, d) complex stacks one sample holds at that peak: its
# elements (the blocks before whitening) and two more, which are the
# Gaussian draws and G, G and G^dagger, or the check's two temporaries;
# the fourth covers the sample's d x d and (outcomes, d) arrays.
SAMPLE_STACKS = 4
# Bytes each sampled measurement's overlap holds until ``sample_overlaps``
# returns: one float64.
OVERLAP_BYTES = 8


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.entries
    return DensityMatrix(np.asarray(rho, dtype=complex)).entries


def _as_matrices(rho0, rho1):
    r0, r1 = _as_matrix(rho0), _as_matrix(rho1)
    if r0.shape != r1.shape:
        raise ValueError(f"dimension mismatch: {r0.shape} vs {r1.shape}")
    return r0, r1


@dataclass(frozen=True)
class Povm:
    """Complete positive-operator-valued measurement.

    Elements must be finite, Hermitian and PSD within 1e-10 and sum to
    the identity within 1e-8; ``check_povms`` makes the checks, as for a
    sampled stack.
    """

    elements: tuple

    def __post_init__(self):
        if len(self.elements) == 0:
            raise InvariantViolation("a POVM needs at least one element")
        mats = [np.array(el, dtype=complex) for el in self.elements]
        dim = mats[0].shape[0]
        for i, mat in enumerate(mats):
            if mat.shape != (dim, dim):
                raise InvariantViolation(f"element {i} has shape {mat.shape}, want ({dim}, {dim})")
        stack = np.stack(mats)
        check_povms(stack[None])
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stack))


def check_povms(stack: np.ndarray) -> None:
    """Check a (count, outcomes, d, d) stack of measurements, one per sample.

    Every element must be finite, Hermitian within POVM_PSD_TOL and have
    its smallest eigenvalue at least -POVM_PSD_TOL, and each sample's
    elements must sum to the identity within POVM_COMPLETE_TOL.  Raises
    InvariantViolation naming the first failing sample and element.

    The eigenvalue bound is first tried as one batched Cholesky
    factorization of E + POVM_PSD_TOL * I, which succeeds exactly when
    every smallest eigenvalue is above -POVM_PSD_TOL.  Only when it fails
    are the eigenvalues computed, to give the verdict and name the element;
    an element within rounding of -POVM_PSD_TOL may get either verdict.
    """
    # NaN fails no comparison below, and factors without an error
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        s, i = (int(k) for k in np.argwhere(~finite)[0])
        raise InvariantViolation(f"sample {s}, element {i} has a non-finite entry")
    asym = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = asym > POVM_PSD_TOL
    try:
        np.linalg.cholesky(stack + POVM_PSD_TOL * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        lows = np.linalg.eigvalsh(stack)[..., 0]
        bad |= lows < -POVM_PSD_TOL
    if bad.any():
        s, i = (int(k) for k in np.argwhere(bad)[0])
        if asym[s, i] > POVM_PSD_TOL:
            raise InvariantViolation(
                f"sample {s}, element {i} is not Hermitian within {POVM_PSD_TOL}")
        raise InvariantViolation(
            f"sample {s}, element {i} has eigenvalue {float(lows[s, i])!r} "
            f"below -{POVM_PSD_TOL}")
    off = np.max(np.abs(stack.sum(axis=1) - np.eye(stack.shape[-1])), axis=(-2, -1))
    if (off > POVM_COMPLETE_TOL).any():
        s = int(np.argmax(off > POVM_COMPLETE_TOL))
        raise InvariantViolation(
            f"sample {s}: elements do not sum to the identity within {POVM_COMPLETE_TOL}")


def fidelity_trace(rho0, rho1) -> float:
    """F = Tr sqrt(sqrt(rho1) rho0 sqrt(rho1))."""
    r0, r1 = _as_matrices(rho0, rho1)
    root1 = matrix_sqrt_psd(r1)
    inner = root1 @ r0 @ root1
    inner = 0.5 * (inner + inner.conj().T)  # squash rounding asymmetry
    return float(np.real(np.trace(matrix_sqrt_psd(inner))))


def fidelity_purification(rho0, rho1):
    """Maximal overlap between purifications, with witnesses.

    Purifies both states with an ancilla of the same dimension d as the
    system, aligning the second purification so the overlap is maximal.

    Returns
    -------
    (value, (psi0, psi1)) : the achieved overlap and the two purifying
        PureStates on 2k qubits (system qubits first, ancilla after),
        whose system reductions reproduce rho0 and rho1.
    """
    r0, r1 = _as_matrices(rho0, rho1)
    d = r0.shape[0]
    if 2 ** int(np.log2(d)) != d:
        raise ValueError(f"dimension {d} is not a power of two; cannot emit qubit registers")
    root0 = matrix_sqrt_psd(r0)
    root1 = matrix_sqrt_psd(r1)
    # coefficient matrices M with M M^dagger = rho purify rho; rotating M
    # on the right moves the ancilla only.  Align via the SVD of
    # sqrt(rho0) sqrt(rho1): the polar phase makes Tr(M0^dagger M1) the
    # sum of singular values, which no other alignment exceeds.
    left, _, right = np.linalg.svd(root0 @ root1)
    m0 = root0
    m1 = root1 @ right.conj().T @ left.conj().T
    psi0 = PureState(m0.reshape(-1))
    psi1 = PureState(m1.reshape(-1))
    value = float(abs(np.vdot(psi0.amplitudes, psi1.amplitudes)))
    return value, (psi0, psi1)


def fidelity_povm(rho0, rho1):
    """Smallest Bhattacharyya coefficient over complete measurements.

    Builds the minimising POVM explicitly: on the support of rho1, measure
    the eigenbasis of rho1^{-1/2} sqrt(sqrt(rho1) rho0 sqrt(rho1)) rho1^{-1/2}
    (inverses taken on the support); the kernel of rho1, if any, is kept
    as one extra outcome so the POVM stays complete.  Only the support
    outcomes are scored: rho1 gives the kernel outcome no weight, and the
    square root of its round-off would only add noise.

    Returns
    -------
    (value, povm) : sum_b sqrt(Tr rho0 E_b) sqrt(Tr rho1 E_b) and the
        measurement that attains it.
    """
    r0, r1 = _as_matrices(rho0, rho1)
    d = r0.shape[0]
    vals, vecs = np.linalg.eigh(r1)
    support = vals > SUPPORT_CUTOFF
    basis = vecs[:, support]                       # d x r isometry onto supp(rho1)
    sup_vals = vals[support]
    r0_s = basis.conj().T @ r0 @ basis
    root1_s = np.diag(np.sqrt(sup_vals))
    inv_root1_s = np.diag(1.0 / np.sqrt(sup_vals))
    mid = matrix_sqrt_psd(root1_s @ r0_s @ root1_s)
    geo = inv_root1_s @ mid @ inv_root1_s
    geo = 0.5 * (geo + geo.conj().T)
    _, geo_vecs = np.linalg.eigh(geo)
    elements = []
    for k in range(geo_vecs.shape[1]):
        v = basis @ geo_vecs[:, k]
        elements.append(np.outer(v, v.conj()))
    if np.count_nonzero(support) < d:
        elements.append(np.eye(d) - basis @ basis.conj().T)
    povm = Povm(tuple(elements))
    scored = np.stack(povm.elements[:geo_vecs.shape[1]])[None]
    return float(povm_overlaps(rho0, rho1, scored)[0]), povm


def povm_overlap(rho0, rho1, povm: Povm) -> float:
    """sum_b sqrt(Tr rho0 E_b) sqrt(Tr rho1 E_b) for one measurement."""
    return float(povm_overlaps(rho0, rho1, np.stack(povm.elements)[None])[0])


def povm_overlaps(rho0, rho1, elements: np.ndarray) -> np.ndarray:
    """``povm_overlap`` of each measurement in a (count, outcomes, d, d) stack.

    Each term is max(Re Tr(rho E_b), 0) for both states, and a sample's
    terms are added in outcome order from 0.0, as for a single measurement,
    so every value is bit-identical to that sample's ``povm_overlap``.
    """
    p0, p1 = (np.maximum(np.trace(r @ elements, axis1=-2, axis2=-1).real, 0.0)
              for r in _as_matrices(rho0, rho1))
    terms = np.sqrt(p0) * np.sqrt(p1)
    totals = np.zeros(len(elements))
    for b in range(terms.shape[1]):
        totals += terms[:, b]
    return totals


def sample_overlaps(rho0, rho1, outcomes: int, count: int, rng) -> np.ndarray:
    """``povm_overlaps`` of ``count`` random measurements from ``random_povms``.

    Samples are drawn and scored ``povm_chunk`` at a time beside the
    ``count`` overlaps, with the budget read at each call, so the peak stays
    within POVM_BYTE_BUDGET whenever the overlaps and one sample fit in it
    (``qcheat fidelity`` refuses a larger ``count``).  The chunks draw from
    one Gaussian stream in sample order, so where they start changes no bit.
    """
    dim = _as_matrix(rho0).shape[0]
    gen = np.random.default_rng(rng)
    values = np.empty(count)
    step = povm_chunk(dim, outcomes, count)
    for start in range(0, count, step):
        chunk = values[start:start + step]
        chunk[:] = povm_overlaps(rho0, rho1, random_povms(dim, outcomes, chunk.size, gen))
    return values


def povm_sample_bytes(dim: int, outcomes: int) -> int:
    """Peak bytes one sampled measurement takes in ``sample_overlaps``:
    SAMPLE_STACKS complex (outcomes, d, d) stacks."""
    return SAMPLE_STACKS * outcomes * dim * dim * 16


def povm_chunk(dim: int, outcomes: int, count: int = 0) -> int:
    """Samples per chunk beside ``count`` overlaps: as many as fit in
    POVM_BYTE_BUDGET, at least one."""
    room = POVM_BYTE_BUDGET - OVERLAP_BYTES * count
    return max(1, room // povm_sample_bytes(dim, outcomes))


def random_povm(dim: int, num_outcomes: int, rng) -> Povm:
    """Random complete POVM with ``num_outcomes`` elements: one sample of
    ``random_povms``."""
    return Povm(tuple(random_povms(dim, num_outcomes, 1, rng)[0]))


def random_povms(dim: int, outcomes: int, count: int, rng) -> np.ndarray:
    """``count`` random complete POVMs as a checked (count, outcomes, d, d) stack.

    Each draws Wishart-style PSD blocks A_k = G_k G_k^dagger and whitens by
    the total: E_k = S^{-1/2} A_k S^{-1/2} with S = sum A_k.  The normals
    are drawn in sample, outcome, real-then-imaginary order, so ``count``
    samples equal ``count`` one-sample calls on the same generator.  The
    whole stack is one pass: ``sample_overlaps`` sizes it to the budget.
    ``rng`` is an integer seed or a numpy Generator; no ambient entropy is
    used.
    """
    if dim < 1 or outcomes < 1:
        raise ValueError("dim and outcomes must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    normals = np.random.default_rng(rng).standard_normal((count, outcomes, 2, dim, dim))
    # exactly re + 1j * im, without a third stack: both products are exact
    g = normals[:, :, 1] * 1j
    g += normals[:, :, 0]
    del normals
    # the blocks are whitened in place into the elements
    blocks = g @ g.conj().swapaxes(-1, -2)
    del g
    vals, vecs = np.linalg.eigh(blocks.sum(axis=1))
    whiten = ((vecs / np.sqrt(vals)[:, None, :]) @ vecs.conj().swapaxes(-1, -2))[:, None]
    np.matmul(whiten @ blocks, whiten, out=blocks)
    check_povms(blocks)
    return blocks
