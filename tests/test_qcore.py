"""Core state machinery against independent dense-matrix oracles."""

import math

import numpy as np
import pytest

from qcheat import qcore
from qcheat.qcore import (
    FUSE_QUBITS,
    MAX_QUBITS,
    MAX_RAW_TARGETS,
    MAX_SIDE_QUBITS,
    NORM_TOL,
    DensityMatrix,
    GateOp,
    InvariantViolation,
    Partition,
    PureState,
    apply_circuit,
    apply_gate,
    apply_unitary,
    gate_matrix,
    is_unitary,
    matrix_sqrt_psd,
    mutual_information,
    partial_trace,
    zero_state,
)
from qcheat.document import MeasureOp
from qcheat.schmidt import schmidt_decompose

SQ2 = 1.0 / math.sqrt(2.0)


# --- oracles -----------------------------------------------------------

def embed_oracle(matrix, qubits, n):
    """Full 2^n x 2^n matrix acting as ``matrix`` on ``qubits``.

    Built by permuting a kron product, with no shared code with the
    package: qubit 0 is the most significant bit throughout.
    """
    k = len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    big = np.kron(np.asarray(matrix, dtype=complex), np.eye(2 ** (n - k)))
    # big acts on bit order qubits + rest; conjugate by the permutation
    order = list(qubits) + rest
    perm = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for src in range(2 ** n):
        bits = [(src >> (n - 1 - q)) & 1 for q in range(n)]
        dst = 0
        for pos, q in enumerate(order):
            dst = (dst << 1) | bits[q]
        perm[dst, src] = 1.0
    return perm.conj().T @ big @ perm


def ptrace_oracle(vec, keep, n):
    """Partial trace by explicit summation over basis indices."""
    keep = tuple(keep)
    drop = [q for q in range(n) if q not in keep]
    dim = 2 ** len(keep)
    rho = np.zeros((dim, dim), dtype=complex)
    full = np.outer(vec, vec.conj())
    for i in range(2 ** n):
        for j in range(2 ** n):
            ib = [(i >> (n - 1 - q)) & 1 for q in range(n)]
            jb = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if any(ib[q] != jb[q] for q in drop):
                continue
            r = 0
            c = 0
            for q in keep:
                r = (r << 1) | ib[q]
                c = (c << 1) | jb[q]
            rho[r, c] += full[i, j]
    return rho


def random_state(rng, n):
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PureState(v / np.linalg.norm(v))


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- states and invariants ---------------------------------------------

def test_zero_state():
    s = zero_state(3)
    assert s.num_qubits == 3
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(s.amplitudes, expected)


def test_pure_state_rejects_unnormalised():
    with pytest.raises(InvariantViolation):
        PureState(np.array([1.0, 1.0]))


def test_pure_state_norm_tolerance_is_unchanged():
    rng = np.random.default_rng(17)
    unit = random_state(rng, 5).amplitudes
    with pytest.raises(InvariantViolation):
        PureState(unit * (1.0 + 2 * NORM_TOL))
    with pytest.raises(InvariantViolation):
        PureState(unit * (1.0 - 2 * NORM_TOL))
    PureState(unit * (1.0 + 0.5 * NORM_TOL))
    with pytest.raises(InvariantViolation):
        PureState(np.array([math.nan, 0.0]))


def test_pure_state_rejects_bad_length():
    with pytest.raises(InvariantViolation):
        PureState(np.ones(3) / math.sqrt(3.0))


def test_density_matrix_invariants():
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.diag([0.7, 0.7]))                 # trace 1.4
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.diag([1.5, -0.5]))                # negative eigenvalue
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert rho.dim == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_density_matrix_refuses_non_finite_entries(bad):
    with pytest.raises(InvariantViolation, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, bad], [bad, 0.5]]))
    with pytest.raises(InvariantViolation):
        DensityMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))


def test_partition_must_cover_range():
    with pytest.raises(InvariantViolation):
        Partition(frozenset({0}), frozenset({2}), frozenset({3}))
    part = Partition(frozenset({0}), frozenset({1}), frozenset({2}))
    assert part.channel_qubits == frozenset({2})
    grown = part.add_ancilla("alice")
    assert grown.machine("alice") == frozenset({0, 3})
    assert grown.machine("bob") == frozenset({1}) and grown.channel_qubits == frozenset({2})


# A qubit index that int() would truncate, or a bool, is refused at every
# site that reads one; numpy integers are taken as the ints they are.

@pytest.mark.parametrize("bad", [0.7, np.float64(0.0), True, np.True_, "0"])
def test_apply_unitary_refuses_a_non_integer_target(bad):
    x = gate_matrix(GateOp("X", (0,)))
    with pytest.raises(ValueError, match="is not an integer"):
        apply_unitary(zero_state(3), x, [bad])
    assert apply_unitary(zero_state(3), x, [np.int64(2)]).amplitudes[1] == 1


@pytest.mark.parametrize("bad", [2.9, True, np.True_])
def test_partial_trace_refuses_a_non_integer_side(bad):
    s = apply_gate(zero_state(3), GateOp("H", (1,)))
    with pytest.raises(ValueError, match="is not an integer"):
        partial_trace(s, [bad])
    assert np.array_equal(partial_trace(s, [np.uint8(1)]).entries,
                          partial_trace(s, [1]).entries)


@pytest.mark.parametrize("bad", [0.7, True, np.True_])
def test_gate_op_refuses_a_non_integer_target(bad):
    with pytest.raises(InvariantViolation, match="is not an integer"):
        GateOp("X", (bad,))
    assert GateOp("CX", (np.int32(1), 0)).targets == (1, 0)
    assert all(type(t) is int for t in GateOp("CX", (np.int32(1), 0)).targets)


@pytest.mark.parametrize("sides", [([0.5], [1], [2.7]), ([0], [True], [2]),
                                   ([0], [1], [np.True_])], ids=["float", "bool", "np.bool"])
def test_partition_refuses_a_non_integer_qubit(sides):
    with pytest.raises(InvariantViolation, match="is not an integer"):
        Partition(*sides)
    part = Partition([np.int64(0)], [np.int64(1)], [2])
    assert part.alice_qubits == frozenset({0}) and part.num_qubits == 3


# --- gates -------------------------------------------------------------

def test_gate_matrix_conventions():
    # half-angle rotations, CX with the first target as control
    ry = gate_matrix(GateOp("RY", (0,), param=math.pi / 2))
    np.testing.assert_allclose(ry, [[SQ2, -SQ2], [SQ2, SQ2]], atol=1e-15)
    rz = gate_matrix(GateOp("RZ", (0,), param=math.pi))
    np.testing.assert_allclose(rz, np.diag([-1j, 1j]), atol=1e-15)
    cx = gate_matrix(GateOp("CX", (0, 1)))
    np.testing.assert_allclose(cx, [[1, 0, 0, 0], [0, 1, 0, 0],
                                    [0, 0, 0, 1], [0, 0, 1, 0]])


def test_qubit_zero_is_most_significant():
    # X on qubit 0 of a 2-qubit register flips the high bit: |00> -> |10>
    s = apply_gate(zero_state(2), GateOp("X", (0,)))
    np.testing.assert_allclose(s.amplitudes, [0, 0, 1, 0], atol=1e-15)
    # CX 0->1 then maps |10> -> |11>
    s = apply_gate(s, GateOp("CX", (0, 1)))
    np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_gate_op_validation():
    with pytest.raises(InvariantViolation):
        GateOp("Q", (0,))
    with pytest.raises(InvariantViolation):
        GateOp("H", (0, 1))                      # wrong arity
    with pytest.raises(InvariantViolation):
        GateOp("CX", (1, 1))                     # repeated target
    with pytest.raises(InvariantViolation):
        GateOp("RY", (0,))                       # missing angle
    with pytest.raises(InvariantViolation):
        GateOp("X", (0,), param=1.0)             # stray angle
    with pytest.raises(InvariantViolation):
        GateOp("RAW", (0,), matrix=np.array([[1, 0], [1, 0]], dtype=complex))
    with pytest.raises(InvariantViolation):
        GateOp("RAW", (0, 1, 2, 3), matrix=np.eye(16, dtype=complex))
    op = GateOp("RAW", (2, 0), matrix=np.eye(4, dtype=complex))
    assert op.targets == (2, 0)


def test_apply_gate_rejects_pending_classical_control():
    op = GateOp("X", (0,), control_classical="m")
    with pytest.raises(ValueError):
        apply_gate(zero_state(1), op)


def test_apply_unitary_rejects_nonunitary():
    with pytest.raises(InvariantViolation):
        apply_unitary(zero_state(1), np.array([[1, 0], [0, 2]], dtype=complex), (0,))


def test_apply_gate_matches_embedding_oracle():
    rng = np.random.default_rng(101)
    ops = [GateOp("H", (1,)), GateOp("CX", (2, 0)), GateOp("SWAP", (0, 3)),
           GateOp("RY", (2,), param=0.77), GateOp("CZ", (3, 1)),
           GateOp("RAW", (1, 3), matrix=random_unitary(rng, 4))]
    for op in ops:
        state = random_state(rng, 4)
        full = embed_oracle(gate_matrix(op), op.targets, 4)
        np.testing.assert_allclose(
            apply_gate(state, op).amplitudes, full @ state.amplitudes, atol=1e-12)


def tensordot_contract(psi, matrix, qubits):
    """The generic contraction, tensordot then moveaxis: the reference
    ``_contract`` must equal to the bit."""
    k = len(qubits)
    op = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    out = np.tensordot(op, psi, axes=(tuple(range(k, 2 * k)), qubits))
    return np.moveaxis(out, tuple(range(k)), qubits)


def per_gate_oracle(amps, ops, n):
    """The gates applied one at a time, each by its own contraction."""
    psi = np.asarray(amps, dtype=complex).reshape((2,) * n)
    for op in ops:
        psi = tensordot_contract(psi, gate_matrix(op), op.targets)
    return psi.reshape(-1)


_ONE_QUBIT = ("H", "X", "Y", "Z", "S", "T")
_TWO_QUBIT = ("CX", "CZ", "SWAP")


def random_circuit(rng, n, length):
    """Seeded gates of every kind, on random distinct targets in random order."""
    ops = []
    for i in range(length):
        kind = str(rng.choice(_ONE_QUBIT + _TWO_QUBIT + ("RY", "RZ", "RAW")))
        if kind == "RAW":
            width = int(rng.integers(1, min(MAX_RAW_TARGETS, n) + 1))
        else:
            width = 2 if kind in _TWO_QUBIT else 1
        targets = tuple(int(q) for q in rng.permutation(n)[:width])
        if i % 5 == 0 and n - 1 not in targets:
            targets = targets[:-1] + (n - 1,)
        if kind == "RAW":
            ops.append(GateOp("RAW", targets, matrix=random_unitary(rng, 2 ** width)))
        elif kind in ("RY", "RZ"):
            ops.append(GateOp(kind, targets, param=float(rng.uniform(-math.pi, math.pi))))
        else:
            ops.append(GateOp(kind, targets))
    return ops


@pytest.mark.parametrize("n", [3, 7, 13])
def test_apply_circuit_matches_the_per_gate_chain(n):
    rng = np.random.default_rng([303, n])
    for trial in range(4):
        ops = random_circuit(rng, n, 40)
        state = random_state(rng, n)
        want = per_gate_oracle(state.amplitudes, ops, n)
        np.testing.assert_allclose(apply_circuit(state, ops).amplitudes, want,
                                   rtol=0, atol=1e-12)
        if n <= 7:
            full = np.eye(2 ** n, dtype=complex)
            for op in ops:
                full = embed_oracle(gate_matrix(op), op.targets, n) @ full
            np.testing.assert_allclose(want, full @ state.amplitudes, rtol=0, atol=1e-12)


def test_apply_circuit_covers_every_target_shape():
    # descending, non-adjacent and last-qubit targets, runs that overflow a block
    rng = np.random.default_rng(304)
    n = 13
    ops = [GateOp("RAW", (12, 5, 0), matrix=random_unitary(rng, 8)),
           GateOp("CX", (12, 3)), GateOp("RY", (7,), param=0.3),
           GateOp("RAW", (9, 2), matrix=random_unitary(rng, 4)),
           GateOp("SWAP", (11, 4)), GateOp("H", (12,)),
           GateOp("RAW", (6,), matrix=random_unitary(rng, 2)),
           GateOp("CZ", (10, 1)), GateOp("T", (0,)),
           *(GateOp("CX", (q + 1, q)) for q in reversed(range(n - 1)))]
    blocks = qcore._fused_blocks(ops, n)
    assert all(len(qubits) <= FUSE_QUBITS for _, qubits in blocks)
    assert len(blocks) < len(ops)
    state = random_state(rng, n)
    np.testing.assert_allclose(apply_circuit(state, ops).amplitudes,
                               per_gate_oracle(state.amplitudes, ops, n), rtol=0, atol=1e-12)


def assert_same_bytes(psi, matrix, qubits):
    got = qcore._contract(psi, matrix, qubits)
    want = tensordot_contract(psi, matrix, qubits)
    assert got.shape == want.shape
    assert np.array_equal(got, want), (psi.shape, qubits)
    return got


@pytest.mark.parametrize("n", [4, 7, 13])
def test_contract_equals_tensordot_bit_for_bit(n):
    rng = np.random.default_rng([307, n])
    targets = [(n - 1,), (2,), (n - 1, 0), (3, 1), (0, n - 1, 2), (n - 1, n - 3, 0),
               (3, 2, 1, 0), (n - 1, 0, n - 2, 1), (1, n - 1, 0, 2)]
    psi = random_state(rng, n).tensor()
    for qubits in targets:
        matrix = random_unitary(rng, 2 ** len(qubits))
        # a fresh contiguous tensor, then the non-contiguous view the
        # previous block returned, then a matrix that is not C-ordered
        assert_same_bytes(random_state(rng, n).tensor(), matrix, qubits)
        psi = assert_same_bytes(psi, matrix, qubits)
        assert not psi.flags.c_contiguous or len(qubits) == n
        assert_same_bytes(psi, matrix.T, qubits)


def test_contract_equals_tensordot_on_the_fusion_identity():
    # _circuit_matrix contracts into the row axes of a (2,)*k + (2^k,) tensor
    rng = np.random.default_rng(308)
    for k in range(1, FUSE_QUBITS + 1):
        mat = np.eye(2 ** k, dtype=complex).reshape((2,) * k + (2 ** k,))
        for qubits in [(k - 1,), tuple(reversed(range(k))), tuple(range(0, k, 2))]:
            mat = assert_same_bytes(mat, random_unitary(rng, 2 ** len(qubits)), qubits)
        assert mat.shape == (2,) * k + (2 ** k,)


def test_a_warm_order_cache_never_hands_a_register_the_wrong_order():
    # _contract's orders are cached by (ndim, qubits): fill the cache on one
    # register size, then contract the same and other qubit tuples on other
    # sizes, and on _circuit_matrix's (2,)*k + (2^k,) tensors
    rng = np.random.default_rng(309)
    targets = [(0,), (2,), (1, 0), (0, 2), (2, 1, 0), (3, 0, 2, 1), (0, 1, 2, 3)]
    qcore._axis_orders.cache_clear()
    psi = random_state(rng, 7).tensor()
    for qubits in targets:
        psi = qcore._contract(psi, random_unitary(rng, 2 ** len(qubits)), qubits)
    warm = qcore._axis_orders.cache_info()
    tensors = [random_state(rng, n).tensor() for n in (4, 5, 8, 9)]
    tensors += [np.eye(2 ** k, dtype=complex).reshape((2,) * k + (2 ** k,))
                for k in range(1, FUSE_QUBITS + 1)]
    for psi in tensors:
        for qubits in targets:
            if max(qubits) >= psi.ndim or psi.shape[max(qubits)] != 2:
                continue
            matrix = random_unitary(rng, 2 ** len(qubits))
            got = qcore._contract(psi, matrix, qubits)
            want = tensordot_contract(psi, matrix, qubits)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (psi.shape, qubits)
    assert qcore._axis_orders.cache_info().hits > warm.hits
    # the cached orders are tuples and the shared identities read-only, so no
    # caller can change what another is handed
    assert all(type(order) is tuple for order in qcore._axis_orders(9, (3, 0, 2, 1)))
    assert all(not eye.flags.writeable for eye in qcore._IDENTITIES)
    # _split's cut is cached by (n, rows, lead): it is handed out as tuples,
    # and a bad side is never cached, so it raises on every call
    rows, cols = qcore._cut(9, (4, 1), (7,))
    assert (rows, cols) == ((1, 4), (7, 0, 2, 3, 5, 6, 8))
    assert type(rows) is tuple and type(cols) is tuple
    assert all(type(q) is int for q in rows + cols)
    assert qcore._cut(9, (4, 1), (7,))[0] is rows
    for side in ((2, 2), (16,), (), tuple(range(MAX_SIDE_QUBITS + 1))):
        for _ in range(2):
            with pytest.raises(ValueError):
                qcore._cut(16, side)
    # any iterable of qubits gives the same cut, bytes included
    state = random_state(rng, 7)
    traces = [partial_trace(state, keep).entries.tobytes()
              for keep in ([5, 2, 0], (5, 2, 0), np.array([5, 2, 0]), (q for q in (5, 2, 0)))]
    assert traces == [traces[0]] * 4
    # each cached inverse undoes its order
    for ndim in (1, 4, 9, 12):
        psi = np.arange(2 ** ndim).reshape((2,) * ndim)
        for _ in range(6):
            qubits = tuple(int(a) for a in rng.permutation(ndim)[:rng.integers(1, ndim + 1)])
            order, inverse = qcore._axis_orders(ndim, qubits)
            assert sorted(order) == list(range(ndim))
            assert np.array_equal(psi.transpose(order).transpose(inverse), psi)



def fresh_contract(psi, matrix, qubits):
    """The kernel on fresh arrays: one np.dot of the matrix and the moved
    tensor flattened by ``reshape`` (a copy, or a view where one exists)."""
    k = len(qubits)
    order = (*qubits, *[a for a in range(psi.ndim) if a not in qubits])
    moved = psi.transpose(order)
    out = np.dot(matrix.reshape(2 ** k, 2 ** k), moved.reshape(2 ** k, -1))
    return out.reshape(moved.shape).transpose(np.argsort(order))


def block_targets(n):
    """1- to 4-qubit blocks on leading, middle and trailing axes, each in
    order and reversed."""
    mid = n // 2 - 2
    spans = [range(w) for w in range(1, 5)] + [range(mid, mid + w) for w in range(1, 5)]
    spans += [range(n - w, n) for w in range(1, 5)]
    return [order for span in spans for order in (tuple(span), tuple(reversed(span)))]


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_buffered_contraction_equals_the_fresh_array_kernel(n):
    # a chain of blocks through one work pair, each compared with the
    # fresh-array kernel on the same input; the chain passes every view a
    # previous block left in a buffer, and both routes are taken: an
    # operand copied into the free buffer, and one flattened as a view
    rng = np.random.default_rng([311, n])
    work = qcore._work_pair(n)
    psi = random_state(rng, n).tensor()
    routes = set()
    for qubits in block_targets(n):
        matrix = random_unitary(rng, 2 ** len(qubits))
        if rng.integers(2):
            matrix = matrix.T
        moved = psi.transpose(qcore._axis_orders(n, qubits)[0])
        routes.add(np.may_share_memory(moved.reshape(2 ** len(qubits), -1), psi))
        want = fresh_contract(psi, matrix, qubits)
        psi = qcore._contract(psi, matrix, qubits, work)
        assert np.array_equal(psi, want), qubits
        assert any(np.may_share_memory(psi, buf) for buf in work)
    assert routes == {True, False}
    # a contiguous register taken straight from a state, leading, middle and
    # trailing: leading and trailing blocks flatten the state's own view, so
    # the product goes into the first buffer and the second is not written
    state = random_state(rng, n)
    for qubits, view in [((0, 1), True), ((n // 2, n // 2 + 1), False), ((n - 2, n - 1), True)]:
        matrix = random_unitary(rng, 4)
        work[1].fill(np.nan)
        got = qcore._contract(state.tensor(), matrix, qubits, work)
        assert np.array_equal(got, fresh_contract(state.tensor(), matrix, qubits))
        assert np.isnan(work[1]).all() == view, qubits


@pytest.mark.parametrize("n", [13, 16])
def test_apply_circuit_equals_the_fresh_array_chain_and_owns_its_result(n):
    rng = np.random.default_rng([312, n])
    ops = random_circuit(rng, n, 30)
    for start in (random_state(rng, n), zero_state(n)):
        want = start.tensor()
        for matrix, qubits in qcore._fused_blocks(ops, n):
            want = fresh_contract(want, matrix, qubits)
        got = apply_circuit(start, ops)
        assert np.array_equal(got.amplitudes, want.reshape(-1))
        assert got.amplitudes.base is None and not got.amplitudes.flags.writeable
        assert not np.may_share_memory(got.amplitudes, start.amplitudes)
    # from a register size, the state started from |0...0> without it
    assert apply_circuit(n, ops).amplitudes.tobytes() == got.amplitudes.tobytes()


def test_adopted_state_runs_every_check():
    with pytest.raises(InvariantViolation, match="norm"):
        PureState._of(np.ones(4, dtype=complex))
    with pytest.raises(InvariantViolation, match="1-D"):
        PureState._of(np.eye(2, dtype=complex))
    amps = np.array([0.6, 0.8j])
    state = PureState._of(amps)
    assert state.amplitudes is amps and not amps.flags.writeable and state.num_qubits == 1

def test_fused_blocks_stay_within_the_bound():
    assert FUSE_QUBITS >= MAX_RAW_TARGETS
    chain = [GateOp("CX", (q, q + 1)) for q in range(5)]
    assert [qubits for _, qubits in qcore._fused_blocks(chain, 6)] == [(0, 1, 2, 3), (3, 4, 5)]
    rng = np.random.default_rng(305)
    for n in (3, 7, 13):
        for _, qubits in qcore._fused_blocks(random_circuit(rng, n, 60), n):
            assert 1 <= len(qubits) <= FUSE_QUBITS


def test_apply_circuit_lists_equal_one_call_per_list():
    rng = np.random.default_rng(306)
    for n in (3, 7, 13):
        first, second = random_circuit(rng, n, 9), random_circuit(rng, n, 7)
        state = random_state(rng, n)
        assert np.array_equal(apply_circuit(state, first, second).amplitudes,
                              apply_circuit(apply_circuit(state, first), second).amplitudes)
    assert apply_circuit(state) is state
    assert apply_circuit(state, (), []) is state


def test_apply_circuit_from_a_register_size_equals_the_zero_state():
    # the tensor holds only the qubits blocks have reached, and at least
    # MIN_HELD_QUBITS, so no product drops to a BLAS kernel's narrow edge
    # case; the bytes must be the full register's
    rng = np.random.default_rng(309)
    for n in (3, 4, 5, 6, 7, 9, 11):
        for trial in range(12):
            lists = [random_circuit(rng, n, int(rng.integers(1, 10))) for _ in range(3)]
            got = apply_circuit(n, *lists)
            want = apply_circuit(zero_state(n), *lists)
            assert got.amplitudes.tobytes() == want.amplitudes.tobytes(), (n, trial)
    assert apply_circuit(1, [GateOp("H", (0,))]).amplitudes.tobytes() == \
        apply_gate(zero_state(1), GateOp("H", (0,))).amplitudes.tobytes()
    assert np.array_equal(apply_circuit(5, (), []).amplitudes, zero_state(5).amplitudes)
    for bad in (0, MAX_QUBITS + 1):
        with pytest.raises(ValueError, match="num_qubits"):
            apply_circuit(bad, [GateOp("H", (0,))])


@pytest.mark.parametrize("size", [True, False, 2.5, 3.0, np.float64(2.0), np.bool_(True), "3"],
                         ids=["True", "False", "2.5", "3.0", "np.float64", "np.bool_", "str"])
def test_a_register_size_must_be_an_integer(size):
    # read as is, a bool makes a 1-qubit register and a float fails inside numpy
    with pytest.raises(ValueError, match=f"num_qubits must be 1..{MAX_QUBITS}"):
        zero_state(size)
    with pytest.raises(ValueError, match=f"num_qubits must be 1..{MAX_QUBITS}"):
        apply_circuit(size, [GateOp("X", (0,))])


def test_a_register_size_may_be_a_numpy_integer():
    assert zero_state(np.int64(3)).num_qubits == 3
    state = apply_circuit(np.int64(2), [GateOp("X", (0,))])
    assert state.num_qubits == 2 and type(state.num_qubits) is int
    assert np.array_equal(state.amplitudes, [0, 0, 1, 0])


def test_apply_circuit_checks_every_op_before_applying():
    state = zero_state(3)
    fine = [GateOp("H", (0,)), GateOp("CX", (0, 1))]
    with pytest.raises(ValueError, match="classical control"):
        apply_circuit(state, fine, [GateOp("X", (2,), control_classical="m")])
    with pytest.raises(ValueError, match="outside register"):
        apply_circuit(state, fine, [GateOp("CX", (1, 3))])
    with pytest.raises(ValueError, match="outside register"):
        apply_gate(state, GateOp("X", (-1,)))


def test_apply_circuit_refuses_a_measurement_before_applying():
    # a MeasureOp has no classical control to read; the kernel refuses it
    # with the ValueError it gives a controlled gate, not an AttributeError
    state = zero_state(3)
    with pytest.raises(ValueError, match=r"^MeasureOp on \(1,\) is not a gate free of "
                                         "classical control"):
        apply_circuit(state, [GateOp("H", (0,))], [MeasureOp((1,), "m")])
    with pytest.raises(ValueError, match="classical control"):
        apply_circuit(3, [MeasureOp((0,), "m")])


def test_apply_unitary_composition():
    rng = np.random.default_rng(7)
    state = random_state(rng, 3)
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    one = apply_unitary(apply_unitary(state, u, (0, 2)), v, (0, 2))
    two = apply_unitary(state, v @ u, (0, 2))
    np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-12)


# --- reductions --------------------------------------------------------

def test_bell_partial_trace_is_maximally_mixed():
    s = apply_gate(zero_state(2), GateOp("H", (0,)))
    s = apply_gate(s, GateOp("CX", (0, 1)))
    rho = partial_trace(s, (0,))
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        keep = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        state = random_state(rng, n)
        got = partial_trace(state, keep)
        want = ptrace_oracle(state.amplitudes, keep, n)
        np.testing.assert_allclose(got.entries, want, atol=1e-12)
        assert abs(np.trace(got.entries) - 1.0) < 1e-10


def test_partial_trace_unsorted_keep_is_sorted():
    rng = np.random.default_rng(5)
    state = random_state(rng, 3)
    np.testing.assert_allclose(
        partial_trace(state, (2, 0)).entries, partial_trace(state, (0, 2)).entries)


def test_partial_trace_side_cap():
    state = zero_state(14)
    with pytest.raises(ValueError):
        partial_trace(state, tuple(range(13)))
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(zero_state(3), (0, 1, 2))
    assert MAX_SIDE_QUBITS == 12 and MAX_QUBITS == 24


# --- spectral helpers --------------------------------------------------

def test_matrix_sqrt_psd_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        mat = g @ g.conj().T
        root = matrix_sqrt_psd(mat)
        np.testing.assert_allclose(root @ root, mat, atol=1e-9)


def test_matrix_sqrt_psd_exact_on_projectors():
    v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    proj = np.outer(v, v)
    root = matrix_sqrt_psd(proj)
    # kernel noise must not survive the square root
    np.testing.assert_allclose(root, proj, atol=1e-14)
    assert abs(np.trace(root).real - 1.0) < 1e-13


def test_matrix_sqrt_psd_rejects_indefinite():
    with pytest.raises(ValueError):
        matrix_sqrt_psd(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_matrix_sqrt_psd_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError, match="not Hermitian"):
        matrix_sqrt_psd(np.array([[0.5, bad], [bad, 0.5]]))


def test_entropy_oracles():
    # I(A:B) = 2 S(A) for a pure state, with S(A) from the Schmidt spectrum
    assert mutual_information(zero_state(4), (0, 1)) == pytest.approx(0.0, abs=1e-12)
    # qubits 0-2 and 1-3 are Bell pairs: side (0, 1) is maximally mixed, S = 2
    pairs = apply_circuit(zero_state(4), [GateOp("H", (0,)), GateOp("CX", (0, 2)),
                                          GateOp("H", (1,)), GateOp("CX", (1, 3))])
    assert mutual_information(pairs, (0, 1)) == pytest.approx(4.0, abs=1e-12)
    # Schmidt spectrum (0.75, 0.25): S = -(0.75 log2 0.75 + 0.25 log2 0.25)
    skew = PureState(np.array([math.sqrt(0.75), 0.0, 0.0, math.sqrt(0.25)]))
    assert mutual_information(skew, (0,)) == pytest.approx(2 * 0.8112781244591328, abs=1e-12)


def test_mutual_information_oracles():
    bell = apply_gate(apply_gate(zero_state(2), GateOp("H", (0,))), GateOp("CX", (0, 1)))
    assert mutual_information(bell, (0,)) == pytest.approx(2.0, abs=1e-10)
    product = zero_state(2)
    assert mutual_information(product, (0,)) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_nonnegative_and_unsigned_zero():
    mi = mutual_information(zero_state(3), (0, 2))
    assert mi == 0.0 and math.copysign(1.0, mi) == 1.0


def test_is_unitary():
    assert is_unitary(np.eye(4))
    assert not is_unitary(np.diag([1.0, 1.0 + 1e-6]))


# --- the one isometry residual --------------------------------------------

def _unitary_formula(m, tol=qcore.UNITARY_TOL):
    """is_unitary's verdict before it read the shared residual."""
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def _projector_formula(v, tol=1e-8):
    """Projector's isometry check before it read the shared residual."""
    gram = v.conj().T @ v
    gram.flat[::len(gram) + 1] -= 1
    return bool(abs(gram).max(initial=0.0) <= tol)


def _rows_formula(basis, tol=1e-8):
    """SchmidtDecomposition's row check before it read the shared residual."""
    return bool(np.max(np.abs(basis @ basis.conj().T - np.eye(len(basis)))) <= tol)


SQUARE_CASES = {
    "unitary": random_unitary(np.random.default_rng(3), 8),
    "off-by-1e-6": np.diag([1.0, 1.0 + 1e-6]).astype(complex),
    "nan": np.array([[math.nan, 0.0], [0.0, 1.0]], dtype=complex),
    "inf": np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex),
}


@pytest.mark.parametrize("name", SQUARE_CASES)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_isometry_residual_gives_each_replaced_formulas_verdict(name):
    m = SQUARE_CASES[name]
    verdict = qcore._isometry_residual(m) <= 1e-8
    assert verdict == _unitary_formula(m) == _projector_formula(m) == _rows_formula(m.conj().T)
    assert is_unitary(m) == verdict
    assert verdict == (name == "unitary")
    if name in ("nan", "inf"):
        assert math.isnan(qcore._isometry_residual(m))
        assert not qcore._isometry_residual(m[:1, :1]) <= 1e-8


def test_isometry_residual_of_schmidt_rows_and_of_no_columns():
    ghz = apply_circuit(3, [GateOp("H", (0,)), GateOp("CX", (0, 1)), GateOp("CX", (0, 2))])
    rows = schmidt_decompose(ghz, (0, 1)).a_basis
    assert rows.shape == (2, 4)
    assert qcore._isometry_residual(rows.conj().T) <= 1e-15
    assert _rows_formula(rows) and _projector_formula(rows.conj().T)
    skewed = rows.copy()
    skewed[1] = (rows[0] + rows[1]) / math.sqrt(2)
    assert not qcore._isometry_residual(skewed.conj().T) <= 1e-8
    assert not _rows_formula(skewed)
    empty = np.zeros((4, 0), dtype=complex)
    assert qcore._isometry_residual(empty) == 0.0 and _projector_formula(empty)


def test_isometry_residual_reads_the_completeness_of_outcome_rules():
    # the coin parser's rules, stacked as W, sum to I when W^dagger is an isometry
    u = SQUARE_CASES["unitary"]
    for w, complete in ((u, True), (u[:, :5], False), (np.hstack([u[:, :5], u[:, 4:]]), False)):
        formula = not abs(w @ w.conj().T - np.identity(len(w))).max() > 1e-8
        assert formula == (qcore._isometry_residual(w.conj().T) <= 1e-8) == complete
