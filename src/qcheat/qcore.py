"""Dense statevector primitives for small quantum registers.

Conventions used throughout the package:

* Qubit 0 is the MOST significant bit of an amplitude index, so the basis
  state |q0 q1 ... q_{n-1}> sits at index q0*2^(n-1) + ... + q_{n-1}.
  Reshaping an amplitude vector to shape (2,)*n therefore maps qubit k to
  tensor axis k.
* Registers are capped at 24 qubits.  Every bipartite quantity reads the
  2^a x 2^b coefficient matrix of one split, ``_split``, whose row side,
  the side square matrices are formed on, stays at or below 12 qubits.
* Gates go through one kernel, ``apply_circuit``.  It refuses any op but a
  GateOp free of classical control, fuses each gate list (a round) into
  dense blocks on at most FUSE_QUBITS qubits and checks the norm once per
  call.  ``apply_gate`` is its one-gate case.
* Given a register size in place of a state, ``apply_circuit`` starts from
  |0...0> without materialising it.  The tensor holds only the qubits
  blocks have reached (at least MIN_HELD_QUBITS, or the whole register);
  each joins as a zero-padded axis when a block first needs it.  The
  amplitudes equal the full register's to the bit.
* Every contraction of a matrix into a state tensor (gate blocks, their
  fusion, ``apply_unitary``, projector expectations, the attack's
  full-side cheat state) is one ``np.dot`` in ``_contract``: the 2^k x 2^k
  matrix times the tensor with the block's axes moved to the front, the
  product transposed back.  These are the operands ``np.tensordot``
  passes to BLAS, so the bytes are the same.
* A call that meets a register of 13 qubits or more (``apply_circuit``,
  ``_apply_matrix``) takes two flat 2^n work buffers, ``_work_pair``, and
  nothing else register-sized.  An operand that needs a C-order copy is
  copied into one (``np.copyto``), and ``np.dot(..., out=)`` writes the
  product into the other; ``_join`` grows the held tensor in one.  The
  register-order result ends in a buffer, which ``PureState._of`` adopts
  after every check, without the copy.  So such a call peaks two
  registers above its input, and its result is one of the two.
* Work buffers of up to WORK_POOL_AMPLITUDES outlive their call: one goes
  back to a free list, ``_work_buffer``'s, when the last array that views
  it is collected, and a later call takes it from there instead of
  faulting fresh pages in.  The list holds at most WORK_POOL_BYTES;
  larger buffers are fresh and freed on return, as below 13 qubits.
* A caller done with a state may donate it (``_donate``): the next
  ``apply_circuit`` it is passed to takes its amplitude vector as one of
  the call's two work buffers, as JAX's ``donate_argnums`` does, so the
  call peaks one register above its input instead of two.  A donated
  state is spent: any later read of its amplitudes raises
  InvariantViolation.
* Reads of a whole register, ``_vdot`` and ``_expectation``, go block by
  block above WORK_MIN_AMPLITUDES amplitudes: each block's ``np.vdot`` is
  added in a fixed order, so the sum does not depend on how BLAS splits a
  long vector across threads, and no temporary is register-sized.  A
  register of one block is read whole, as one ``np.vdot``.
* All values are immutable.  Operations return fresh values and never
  mutate their inputs, a donated state excepted, so everything here is
  safe to share across threads.
  The module's caches hold only tuples (``_contract``'s axis orders, keyed
  by tensor rank and block axes, and ``_split``'s checked cuts, keyed by
  register size, rows and lead) and read-only arrays (``_circuit_matrix``'s
  identities), so what one caller is handed no other can change.  The free
  list is taken from and added to under a lock, and holds only buffers no
  array views, so no two live values, in one thread or two, share one.
  Each thread reads blocks through its own pair of block buffers.
* Nothing in this module reads ambient entropy; randomness, where needed,
  always arrives as an explicit generator or seed.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_QUBITS",
    "MAX_SIDE_QUBITS",
    "DensityMatrix",
    "GateOp",
    "InvariantViolation",
    "Partition",
    "PureState",
    "apply_circuit",
    "apply_gate",
    "apply_unitary",
    "gate_matrix",
    "is_unitary",
    "matrix_sqrt_psd",
    "mutual_information",
    "partial_trace",
    "zero_state",
]

MAX_QUBITS = 24
MAX_SIDE_QUBITS = 12

NORM_TOL = 1e-10
HERMITIAN_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
UNITARY_TOL = 1e-8
SQRT_CLAMP_TOL = 1e-8
SQRT_KERNEL_CUTOFF = 1e-12
ENTROPY_CUTOFF = 1e-12

GATE_NAMES = ("H", "X", "Y", "Z", "S", "T", "RY", "RZ", "CX", "CZ", "SWAP", "RAW")
_PARAM_GATES = ("RY", "RZ")
_GATE_ARITY = {"H": 1, "X": 1, "Y": 1, "Z": 1, "S": 1, "T": 1,
               "RY": 1, "RZ": 1, "CX": 2, "CZ": 2, "SWAP": 2}
MAX_RAW_TARGETS = 3

# apply_circuit fuses consecutive gates into dense blocks on at most this
# many qubits.  It is at least MAX_RAW_TARGETS, so every gate fits in one
# block.  Times of one 14-op attack-ladder pass (n = 13..19, 2 cores, two
# BLAS threads, three passes each) by block width: 2 qubits 1.73-1.98 s,
# 3 qubits 1.50-1.66 s, 4 qubits 1.29-1.57 s, 5 qubits 1.27-1.65 s; one
# gate per contraction, 2.09-2.21 s.
FUSE_QUBITS = 4

# apply_circuit, started from |0...0>, holds at least this many qubits in
# its tensor, or the whole register, so every product has at least 2^3
# columns.  A column's bytes do not depend on the column count only in
# whole column tiles of the BLAS kernel: OpenBLAS's Haswell zgemm gives
# other bytes when the count is not a multiple of 4, and numpy sends a
# single column to gemv.  Registers this small are built whole at once.
MIN_HELD_QUBITS = FUSE_QUBITS + 3

# Calls on registers of at least this many amplitudes (13 qubits, 128 KiB,
# glibc's default mmap threshold) contract into two work buffers.
# Smaller arrays come from the heap, where a fresh one costs no page
# faults, and a kept pair's bookkeeping would add about 8 us to a 10-30 us
# call on 7 qubits (0.6 us for two fresh arrays, one BLAS thread).  It is
# also the block of _vdot and _expectation: OpenBLAS gives a vdot of this
# length the same bytes at one and two threads.
WORK_MIN_AMPLITUDES = 2 ** 13

# Work buffers of at most this many amplitudes (21 qubits, 32 MiB) are kept
# for later calls, at most four of that size.  Freed, glibc trims them from
# the heap top: a warm repeat of attack on a 19-qubit ladder document took
# 6.2k-8.3k minor faults, and none kept (2-core VM, one or two BLAS threads).
WORK_POOL_AMPLITUDES = 2 ** 21
WORK_POOL_BYTES = 4 * 16 * WORK_POOL_AMPLITUDES

_free_buffers = []  # kept buffers, no array viewing them, smallest and latest first
_free_lock = threading.Lock()
_block_buffers = threading.local()  # each thread's pair for _expectation


class InvariantViolation(Exception):
    """A numerical invariant of a core value was broken.

    Raised when construction-time checks fail (norms, hermiticity,
    positivity, unitarity).  Distinct from ValueError so that callers can
    tell internal inconsistencies apart from bad user input.
    """


def _qubit_indices(qubits, error=ValueError) -> tuple:
    """``qubits`` as a tuple of ints.  Any integer is taken, numpy's too; a
    bool, or a value such as 0.7 that ``int()`` would truncate, raises
    ``error``."""
    indices = []
    for q in qubits:
        try:
            if isinstance(q, bool):
                raise TypeError
            indices.append(operator.index(q))
        except TypeError:
            raise error(f"qubit index {q!r} is not an integer") from None
    return tuple(indices)


def _frozen_array(values, dtype=np.complex128) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalised statevector on ``num_qubits`` qubits."""

    amplitudes: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        self._own(np.array(self.amplitudes, dtype=complex))

    @classmethod
    def _of(cls, amplitudes: np.ndarray) -> "PureState":
        """A PureState that adopts ``amplitudes``, a fresh complex vector that
        no caller holds.  Every check runs; only the copy is skipped, and the
        vector becomes read-only."""
        state = object.__new__(cls)
        state._own(amplitudes)
        return state

    def _own(self, amps: np.ndarray):
        if amps.ndim != 1:
            raise InvariantViolation("amplitudes must be a 1-D vector")
        n = int(math.log2(amps.size)) if amps.size > 0 else 0
        if amps.size != 2 ** n or n < 1:
            raise InvariantViolation(
                f"amplitude vector length {amps.size} is not 2^n for n >= 1")
        if n > MAX_QUBITS:
            raise InvariantViolation(f"register of {n} qubits exceeds the cap of {MAX_QUBITS}")
        norm = math.sqrt(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    def __getattr__(self, name):
        # reached only when ``amplitudes`` is gone: _donate took it
        if name == "amplitudes":
            raise InvariantViolation("the state was donated to a kernel call and is spent")
        raise AttributeError(name)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit."""
        return self.amplitudes.reshape((2,) * self.num_qubits)


def _donate(state: PureState) -> PureState:
    """``state``, given up by its caller: the next ``apply_circuit`` it is
    passed to may overwrite its amplitude vector, and from now on any read
    of the state raises InvariantViolation."""
    amps = state.amplitudes
    object.__delattr__(state, "amplitudes")
    object.__setattr__(state, "_donated", amps)
    return state


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvariantViolation("density matrix must be square")
        if not np.max(np.abs(entries - entries.conj().T)) <= HERMITIAN_TOL:
            raise InvariantViolation(
                f"density matrix is not Hermitian within {HERMITIAN_TOL}")
        trace = entries.trace()
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise InvariantViolation(f"trace {trace!r} deviates from 1 beyond {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(entries)[0])
        if not lo >= -EIGENVALUE_TOL:
            raise InvariantViolation(
                f"smallest eigenvalue {lo!r} is below -{EIGENVALUE_TOL}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "dim", entries.shape[0])


@dataclass(frozen=True)
class Partition:
    """Disjoint ownership of register indices by Alice, Bob and the channel."""

    alice_qubits: frozenset
    bob_qubits: frozenset
    channel_qubits: frozenset

    def __post_init__(self):
        a, b, c = (frozenset(_qubit_indices(side, InvariantViolation)) for side in
                   (self.alice_qubits, self.bob_qubits, self.channel_qubits))
        total = len(a) + len(b) + len(c)
        union = a | b | c
        if len(union) != total:
            raise InvariantViolation("partition sides overlap")
        if union != set(range(total)):
            raise InvariantViolation(
                f"partition must cover exactly 0..{total - 1}, got {sorted(union)}")
        object.__setattr__(self, "alice_qubits", a)
        object.__setattr__(self, "bob_qubits", b)
        object.__setattr__(self, "channel_qubits", c)

    @property
    def num_qubits(self) -> int:
        return len(self.alice_qubits) + len(self.bob_qubits) + len(self.channel_qubits)

    def machine(self, actor: str) -> frozenset:
        if actor == "alice":
            return self.alice_qubits
        if actor == "bob":
            return self.bob_qubits
        raise ValueError(f"unknown actor {actor!r}")

    def holding(self, actor: str, channel) -> tuple:
        """``actor``'s sorted qubits: their machine, and the channel when
        ``channel``, the party holding it, is ``actor``."""
        side = self.machine(actor)
        if channel == actor:
            side = side | self.channel_qubits
        return tuple(sorted(side))

    def add_ancilla(self, owner: str) -> "Partition":
        """Append one fresh qubit at the end of the register, owned by ``owner``."""
        idx = self.num_qubits
        if owner == "alice":
            return Partition(self.alice_qubits | {idx}, self.bob_qubits, self.channel_qubits)
        if owner == "bob":
            return Partition(self.alice_qubits, self.bob_qubits | {idx}, self.channel_qubits)
        raise ValueError(f"ancilla owner must be alice or bob, got {owner!r}")


_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED_GATES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def _isometry_residual(v: np.ndarray) -> float:
    """max |V^dagger V - I|: 0 for no columns, NaN or inf for a NaN or inf in
    ``v``, which ``not residual <= tol`` refuses.  The Gram is formed once and
    the identity subtracted in place, with no identity or second temporary."""
    gram = v.conj().T @ v
    gram.flat[::len(gram) + 1] -= 1
    return float(np.abs(gram).max(initial=0.0))


def is_unitary(matrix: np.ndarray) -> bool:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return _isometry_residual(matrix) <= UNITARY_TOL


@dataclass(frozen=True)
class GateOp:
    """One gate from the fixed basis, applied to explicit target qubits.

    ``kind`` is one of H, X, Y, Z, S, T, RY, RZ, CX, CZ, SWAP, RAW.  RY/RZ
    carry an angle in ``param``; RAW carries an explicit unitary ``matrix``
    on at most three targets.  ``control_classical`` names a measurement
    result that must be all ones for the gate to fire; it only appears in
    protocols that have not been compiled to unitary form yet.
    """

    kind: str
    targets: tuple
    param: float | None = None
    matrix: np.ndarray | None = None
    control_classical: str | None = None

    def __post_init__(self):
        if self.kind not in GATE_NAMES:
            raise InvariantViolation(f"unknown gate kind {self.kind!r}")
        targets = _qubit_indices(self.targets, InvariantViolation)
        if len(set(targets)) != len(targets):
            raise InvariantViolation(f"gate targets repeat: {targets}")
        object.__setattr__(self, "targets", targets)
        if self.kind == "RAW":
            if self.matrix is None:
                raise InvariantViolation("RAW gate requires a matrix")
            if not 1 <= len(targets) <= MAX_RAW_TARGETS:
                raise InvariantViolation(
                    f"RAW gate takes 1..{MAX_RAW_TARGETS} targets, got {len(targets)}")
            mat = _frozen_array(self.matrix)
            want = 2 ** len(targets)
            if mat.shape != (want, want):
                raise InvariantViolation(
                    f"RAW matrix shape {mat.shape} does not match {len(targets)} targets")
            if not is_unitary(mat):
                raise InvariantViolation(f"RAW matrix is not unitary within {UNITARY_TOL}")
            object.__setattr__(self, "matrix", mat)
            if self.param is not None:
                raise InvariantViolation("RAW gate takes no angle parameter")
        else:
            if self.matrix is not None:
                raise InvariantViolation(f"{self.kind} gate takes no matrix")
            if len(targets) != _GATE_ARITY[self.kind]:
                raise InvariantViolation(
                    f"{self.kind} takes {_GATE_ARITY[self.kind]} target(s), got {len(targets)}")
            if self.kind in _PARAM_GATES:
                if self.param is None:
                    raise InvariantViolation(f"{self.kind} requires an angle parameter")
                object.__setattr__(self, "param", float(self.param))
            elif self.param is not None:
                raise InvariantViolation(f"{self.kind} takes no angle parameter")


def gate_matrix(op: GateOp) -> np.ndarray:
    """Unitary matrix of ``op`` on its own targets, qubit order as listed."""
    if op.kind == "RAW":
        return op.matrix
    if op.kind == "RY":
        c, s = math.cos(op.param / 2.0), math.sin(op.param / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if op.kind == "RZ":
        return np.diag([np.exp(-0.5j * op.param), np.exp(0.5j * op.param)])
    return _FIXED_GATES[op.kind]


def _check_targets(qubits, num_qubits, what="target") -> tuple:
    qubits = _qubit_indices(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{what} qubits repeat: {qubits}")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"{what} qubit {q} outside register of {num_qubits} qubits")
    return qubits


# read-only identities for _circuit_matrix, one per fused-block width
_IDENTITIES = tuple(_frozen_array(np.eye(2 ** k)) for k in range(FUSE_QUBITS + 1))


def _circuit_matrix(ops, qubits) -> np.ndarray:
    """Matrix of a gate list on the subspace spanned by ``qubits``, in that order.

    The gates are contracted into the row axes of the identity, one by one;
    with no gates the result may be a read-only view of that identity.
    """
    k = len(qubits)
    eye = _IDENTITIES[k] if k < len(_IDENTITIES) else np.eye(2 ** k, dtype=complex)
    mat = eye.reshape((2,) * k + (2 ** k,))
    for op in ops:
        mat = _contract(mat, gate_matrix(op), tuple(qubits.index(t) for t in op.targets))
    return mat.reshape(2 ** k, 2 ** k)


def _contract(psi: np.ndarray, matrix: np.ndarray, qubits, work=None) -> np.ndarray:
    """Contract ``matrix`` (2^k x 2^k) into axes ``qubits`` of the state tensor.

    One ``np.dot``: the matrix, reshaped to 2^k x 2^k as given, times
    ``psi`` with the block's axes moved to the front and flattened to 2^k
    rows.  ``np.tensordot`` passes BLAS these operands, strides included,
    so the bytes are its; a C-contiguous copy of a transposed matrix would
    round differently.  ``psi`` may have axes wider than 2, as
    ``_circuit_matrix``'s identity does.  Returns the result with its axes
    back in register order, as a view that is usually not contiguous.
    Does not require unitarity; used for projectors as well as gates.

    ``work`` is a call's pair of flat buffers (``_work_pair``); with it
    nothing is allocated.  Where the flattened operand is not a view of
    ``psi``, the C-order copy ``reshape`` would make goes into a buffer
    ``psi`` does not occupy, and the product into the other; where it is,
    the product goes straight into a buffer ``psi`` does not occupy.
    """
    k = len(qubits)
    order, inverse = _axis_orders(psi.ndim, tuple(qubits))
    moved = psi.transpose(order)
    matrix = np.asarray(matrix, dtype=complex).reshape(2 ** k, 2 ** k)
    if work is None:
        out = np.dot(matrix, moved.reshape(2 ** k, -1))
    else:
        free, other = _free(psi, work)
        try:
            operand, target = moved.reshape(2 ** k, -1, copy=False), free
        except ValueError:
            operand = free[:psi.size].reshape(moved.shape)
            np.copyto(operand, moved)
            operand, target = operand.reshape(2 ** k, -1), other
        out = np.dot(matrix, operand, out=target[:psi.size].reshape(2 ** k, -1))
    return out.reshape(moved.shape).transpose(inverse)


def _work_pair(num_qubits: int, donated=None) -> tuple | None:
    """Two flat, uninitialised buffers of 2^``num_qubits`` amplitudes that
    no live array shares: a tensor of that register or of fewer qubits
    lives in a leading slice of one of them.  ``donated``, a spent state's
    vector, is the first.  None below WORK_MIN_AMPLITUDES, where each array
    is fresh."""
    if 2 ** num_qubits < WORK_MIN_AMPLITUDES:
        return None
    if donated is None:
        donated = _work_buffer(2 ** num_qubits)
    return donated, _work_buffer(2 ** num_qubits)


def _carve(*shapes) -> list:
    """Uninitialised C-order arrays of ``shapes`` for a call's temporaries:
    laid end to end in one work buffer when together they reach
    WORK_MIN_AMPLITUDES, else fresh."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) < WORK_MIN_AMPLITUDES:
        return [np.empty(shape, dtype=complex) for shape in shapes]
    buffer, start, arrays = _work_buffer(sum(sizes)), 0, []
    for shape, size in zip(shapes, sizes):
        arrays.append(buffer[start:start + size].reshape(shape))
        start += size
    return arrays


def _work_buffer(size: int) -> np.ndarray:
    """A flat, uninitialised buffer of ``size`` amplitudes.

    Up to WORK_POOL_AMPLITUDES it views the smallest free buffer that holds
    ``size``, of those the last returned, whose pages are the likeliest in
    cache; on a miss the free list, all smaller, is dropped and a buffer
    made.  It views that buffer through a memoryview, so numpy makes it,
    not the buffer, the base of every view of it, and the buffer goes back
    (``_release``) only when it and all its views are collected.  Larger
    buffers are fresh and never kept.
    """
    with _free_lock:
        i = bisect.bisect_left(_free_buffers, size, key=len)
        raw = _free_buffers.pop(i) if i < len(_free_buffers) else None
        if raw is None:
            _free_buffers.clear()
    if raw is None:
        raw = np.empty(size, dtype=complex)
        if size > WORK_POOL_AMPLITUDES:
            return raw
    buffer = np.frombuffer(memoryview(raw), dtype=complex, count=size)
    weakref.finalize(buffer, _release, raw)
    return buffer


def _release(raw: np.ndarray):
    """Put ``raw`` back on the free list if it stays within WORK_POOL_BYTES.
    A collection inside ``_work_buffer``'s locked section can run this in
    the thread that holds the lock, so it never waits for the lock: while
    the list is busy, ``raw`` is freed instead."""
    if not _free_lock.acquire(blocking=False):
        return
    try:
        if sum(kept.nbytes for kept in _free_buffers) + raw.nbytes <= WORK_POOL_BYTES:
            bisect.insort_left(_free_buffers, raw, key=len)
    finally:
        _free_lock.release()


def _free(psi, work) -> tuple:
    """(a buffer of ``work`` that ``psi`` does not occupy, the other one)."""
    first, second = work
    return (second, first) if np.may_share_memory(psi, first) else work


def _register_vector(psi: np.ndarray, work) -> np.ndarray:
    """``psi``, a whole-register tensor in a ``work`` buffer, as the flat
    register-order vector: that buffer when ``psi`` is C-ordered in it, else
    the other one with ``psi`` copied in.  With no ``work``, ``psi`` is fresh
    and flattened as ``reshape`` does."""
    if work is None:
        return psi.reshape(-1)
    free, occupied = _free(psi, work)
    if psi.flags.c_contiguous:
        return occupied
    np.copyto(free.reshape(psi.shape), psi)
    return free


@functools.lru_cache(maxsize=4096)
def _axis_orders(ndim: int, qubits: tuple) -> tuple:
    """(order, inverse): ``qubits`` moved to the front of ``ndim`` axes, and
    the permutation that undoes it, as tuples built once per key."""
    order = (*qubits, *[a for a in range(ndim) if a not in qubits])
    inverse = [0] * ndim
    for i, a in enumerate(order):
        inverse[a] = i
    return order, tuple(inverse)


def _apply_matrix(amps: np.ndarray, matrix: np.ndarray, qubits, num_qubits) -> np.ndarray:
    """``_contract`` on an amplitude vector, flattened back to one: a fresh
    vector, one of the call's work buffers from WORK_MIN_AMPLITUDES up."""
    work = _work_pair(num_qubits)
    return _register_vector(
        _contract(amps.reshape((2,) * num_qubits), matrix, qubits, work), work)


def apply_unitary(state: PureState, matrix: np.ndarray, qubits) -> PureState:
    """Apply a unitary on an arbitrary subset of qubits.

    Parameters
    ----------
    state : PureState
    matrix : (2^k, 2^k) unitary; the first qubit in ``qubits`` is the most
        significant bit of the matrix index.
    qubits : ordered sequence of k distinct register indices.
    """
    qubits = _check_targets(qubits, state.num_qubits)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2 ** len(qubits), 2 ** len(qubits)):
        raise ValueError(
            f"matrix shape {matrix.shape} does not match {len(qubits)} qubits")
    if not is_unitary(matrix):
        raise InvariantViolation(f"matrix is not unitary within {UNITARY_TOL}")
    return PureState._of(_apply_matrix(state.amplitudes, matrix, qubits, state.num_qubits))


def _fused_blocks(ops, num_qubits) -> list:
    """``ops`` checked and fused into (matrix, qubits) blocks of <= FUSE_QUBITS.

    A gate joins the open block while the union of their targets stays
    within FUSE_QUBITS qubits, listed in order of first use; a block of one
    gate keeps that gate's own matrix and target order.
    """
    runs = []
    for op in ops:
        if not isinstance(op, GateOp) or op.control_classical is not None:
            raise ValueError(
                f"{type(op).__name__} on {op.targets} is not a gate free of classical "
                "control; compile the protocol to unitary form first")
        targets = _check_targets(op.targets, num_qubits)
        if runs:
            run, qubits = runs[-1]
            union = qubits + tuple(q for q in targets if q not in qubits)
            if len(union) <= FUSE_QUBITS:
                run.append(op)
                runs[-1] = (run, union)
                continue
        runs.append(([op], targets))
    return [(gate_matrix(run[0]) if len(run) == 1 else _circuit_matrix(run, qubits), qubits)
            for run, qubits in runs]


def apply_circuit(state: PureState | int, *op_lists) -> PureState:
    """``state`` with each list of GateOps applied in turn.

    ``state`` is a PureState, or a register size to start from |0...0>.
    Every op of every list is checked before any is applied: it must be a
    GateOp free of classical control, with distinct targets in the
    register.  Within a list, runs of consecutive gates whose
    targets span at most FUSE_QUBITS qubits are multiplied into one dense
    block, applied by one contraction of the state tensor.  No block spans
    two lists, so a circuit passed one round per list goes through the same
    blocks whether its rounds are applied in one call or one call each.
    The state is flattened and its norm checked once, in the PureState
    this returns; with no gates at all, ``state`` itself (or |0...0>) is
    returned.

    From WORK_MIN_AMPLITUDES up, every tensor the call makes lives in one
    of its two work buffers, and the returned state adopts one of them: the
    call peaks two registers above its input.  A donated ``state``
    (``_donate``) lends its vector as the first work buffer, so the call
    peaks one register above it; with no gates the returned state adopts
    that vector.

    From |0...0> the tensor holds only the qubits blocks have reached, its
    axes in register order.  Before each block, qubits join in the order
    blocks first touch them until the block's own are held, and at least
    MIN_HELD_QUBITS or the whole register.  Each block sees those
    columns of the full register's operand where no absent qubit is |1>;
    the dropped columns are exactly zero, so the amplitudes are the full
    register's to the bit.
    """
    fresh = not isinstance(state, PureState)
    n = _check_register(state) if fresh else state.num_qubits
    blocks = [block for ops in op_lists for block in _fused_blocks(ops, n)]
    donated = None if fresh else state.__dict__.pop("_donated", None)
    if donated is not None:
        donated.setflags(write=True)
    if not blocks:
        if fresh:
            return zero_state(n)
        return state if donated is None else PureState._of(donated)
    work = _work_pair(n, donated)
    if fresh:
        arrival = list(dict.fromkeys([*(q for _, qubits in blocks for q in qubits),
                                      *range(n)]))
        held, psi = [], np.complex128(1.0)  # |0...0> on no qubits yet
    else:
        held = list(range(n))
        psi = (state.amplitudes if donated is None else donated).reshape((2,) * n)
    for matrix, qubits in blocks:
        axes = qubits
        if len(held) < n:
            reach = max(arrival.index(q) for q in qubits) + 1
            held, psi = _join(psi, held, arrival[len(held):max(
                reach, min(n, MIN_HELD_QUBITS))], work)
            axes = [held.index(q) for q in qubits]
        psi = _contract(psi, matrix, axes, work)
    if len(held) < n:
        _, psi = _join(psi, held, arrival[len(held):], work)
    return PureState._of(_register_vector(psi, work))


def _join(psi: np.ndarray, held, new, work) -> tuple:
    """(held + new sorted, ``psi`` with the |0> qubits ``new`` joined as axes).

    The grown tensor is zeroed, in a ``work`` buffer ``psi`` does not
    occupy or else fresh, and ``psi`` written where every new qubit is 0.
    ``held`` lists ``psi``'s axes, sorted.
    """
    if not new:
        return held, psi
    held = sorted([*held, *new])
    if work is None:
        grown = np.zeros((2,) * len(held), dtype=complex)
    else:
        grown = _free(psi, work)[0][:2 ** len(held)].reshape((2,) * len(held))
        grown.fill(0)
    grown[tuple(0 if q in new else slice(None) for q in held)] = psi
    return held, grown


def _vdot(bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra|ket> of two register vectors: one ``np.vdot`` up to
    WORK_MIN_AMPLITUDES, and above it the vdots of consecutive blocks of
    that many amplitudes, added in order."""
    if bra.size <= WORK_MIN_AMPLITUDES:
        return np.vdot(bra, ket)
    total = 0j
    for start in range(0, bra.size, WORK_MIN_AMPLITUDES):
        stop = start + WORK_MIN_AMPLITUDES
        total += np.vdot(bra[start:stop], ket[start:stop])
    return total


def _expectation(amps: np.ndarray, matrix: np.ndarray, qubits, num_qubits) -> float:
    """Re <psi| A |psi>, A being ``matrix`` on at most 13 ``qubits``.

    Up to WORK_MIN_AMPLITUDES amplitudes: ``np.vdot(psi, A psi)``, A psi
    from ``_apply_matrix``.  Above, the most significant qubits off
    ``qubits`` index blocks of WORK_MIN_AMPLITUDES, taken in order.  Each
    block, ``qubits`` leading, is copied into the first of this thread's
    two block buffers and A applied into the second, and their vdot added
    to the sum.  The buffers are made once per thread, so no temporary is
    register-sized and a repeat faults no pages in.
    """
    if amps.size <= WORK_MIN_AMPLITUDES:
        return np.vdot(amps, _apply_matrix(amps, matrix, qubits, num_qubits)).real
    qubits = tuple(qubits)
    rest = [q for q in range(num_qubits) if q not in qubits]
    inner = WORK_MIN_AMPLITUDES.bit_length() - 1
    outer = num_qubits - inner
    tensor = amps.reshape((2,) * num_qubits).transpose(*rest[:outer], *qubits, *rest[outer:])
    pair = getattr(_block_buffers, "pair", None)
    if pair is None:
        pair = _block_buffers.pair = np.empty((2, WORK_MIN_AMPLITUDES), dtype=complex)
    block, product = pair
    rows = 2 ** len(qubits)
    total = 0.0
    for index in np.ndindex((2,) * outer):
        np.copyto(block.reshape((2,) * inner), tensor[index])
        np.dot(matrix, block.reshape(rows, -1), out=product.reshape(rows, -1))
        total += np.vdot(block, product).real
    return total


def apply_gate(state: PureState, op: GateOp) -> PureState:
    """Apply one GateOp: ``apply_circuit`` on a one-gate circuit."""
    return apply_circuit(state, (op,))


def _split(state: PureState, rows, lead=()) -> tuple:
    """(rows, cols, M): the coefficient matrix of ``state`` across one cut.

    ``rows`` is sorted and indexes the 2^|rows| rows of M; the rest of the
    register indexes its columns: the ``lead`` qubits first, in the order
    given, then the others in order.  Both sides must be nonempty.
    Only the row side is capped at MAX_SIDE_QUBITS: every caller puts there
    the side it forms square matrices on.
    """
    rows, cols = _cut(state.num_qubits, rows, lead)
    return rows, cols, state.tensor().transpose(rows + cols).reshape(2 ** len(rows), -1)


def _cut(n: int, rows, lead=()) -> tuple:
    """(rows, cols) of ``_split`` on an ``n``-qubit register.  The indices
    are read first, since a cache key would take 1.0 or True for 1."""
    return _checked_cut(n, _qubit_indices(rows), _qubit_indices(lead))


@functools.lru_cache(maxsize=256)
def _checked_cut(n: int, rows: tuple, lead: tuple) -> tuple:
    """``_cut`` checked once per key; a bad side is not cached and raises on
    every call."""
    rows = tuple(sorted(_check_targets(rows, n, "side")))
    lead = _check_targets(lead, n, "side")
    cols = lead + tuple(q for q in range(n) if q not in rows and q not in lead)
    if not rows or not cols:
        raise ValueError("both sides of the split must be nonempty")
    if len(rows) > MAX_SIDE_QUBITS:
        raise ValueError(
            f"cannot form a {len(rows)}-qubit side; sides are capped at {MAX_SIDE_QUBITS}")
    return rows, cols


def _merge(rows, cols, mat: np.ndarray, work=None) -> np.ndarray:
    """The amplitude vector whose ``_split`` across (rows, cols) is ``mat``;
    with ``work``, ``mat`` is in one of its buffers and the vector too."""
    _, inverse = _axis_orders(len(rows) + len(cols), rows + cols)
    return _register_vector(mat.reshape((2,) * len(inverse)).transpose(inverse), work)


def partial_trace(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of ``state`` on the ``keep`` qubits: M M^dagger
    of the split with ``keep`` as its rows."""
    mat = _split(state, keep)[2]
    return DensityMatrix(mat @ mat.conj().T)


def matrix_sqrt_psd(matrix) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything lower is an
    error rather than silently truncated.  Eigenvalues below 1e-12 of the
    largest are also zeroed: they are indistinguishable from exact kernel
    at machine precision, and sqrt would inflate that noise to 1e-8.
    """
    mat = matrix.entries if isinstance(matrix, DensityMatrix) else np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if not np.max(np.abs(mat - mat.conj().T)) <= SQRT_CLAMP_TOL:
        raise ValueError(f"matrix is not Hermitian within {SQRT_CLAMP_TOL}")
    vals, vecs = np.linalg.eigh(mat)
    if not vals[0] >= -SQRT_CLAMP_TOL:
        raise ValueError(
            f"eigenvalue {vals[0]!r} below -{SQRT_CLAMP_TOL}; matrix is not PSD")
    vals = np.maximum(vals, 0.0)
    vals[vals < vals[-1] * SQRT_KERNEL_CUTOFF] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _entropy_bits(probs) -> float:
    """Shannon entropy in bits; probabilities below 1e-12 contribute zero."""
    probs = probs[probs > ENTROPY_CUTOFF]
    return float(-np.sum(probs * np.log2(probs))) + 0.0  # never -0.0


def mutual_information(state: PureState, a_side) -> float:
    """Quantum mutual information I(A:B) of a pure state, in bits.

    ``a_side`` lists the qubits of side A, the rest form side B.  A pure
    joint state has S(AB) = 0 and S(A) = S(B), so I = 2 S(A), read off the
    Schmidt coefficients of one split with the smaller side as its rows.
    """
    a = _check_targets(a_side, state.num_qubits, "side")
    rows = a if 2 * len(a) <= state.num_qubits else [
        q for q in range(state.num_qubits) if q not in a]
    singular = np.linalg.svd(_split(state, rows)[2], compute_uv=False)
    return 2.0 * _entropy_bits(singular ** 2)


def _check_register(num_qubits) -> int:
    """``num_qubits`` as an int in 1..MAX_QUBITS.  Any integer is taken,
    numpy's too; a bool or a float raises ``ValueError``."""
    try:
        n = 0 if isinstance(num_qubits, bool) else operator.index(num_qubits)
    except TypeError:
        n = 0
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be 1..{MAX_QUBITS}, got {num_qubits}")
    return n


def zero_state(num_qubits: int) -> PureState:
    """|0...0> on ``num_qubits`` qubits."""
    amps = np.zeros(2 ** _check_register(num_qubits), dtype=complex)
    amps[0] = 1.0
    return PureState(amps)
