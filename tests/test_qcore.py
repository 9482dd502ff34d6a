import functools
import itertools
import warnings

import numpy as np
import pytest
from conftest import random_density_matrix, random_hermitian, random_unitary
from verifiers import partial_trace_stack, pauli_decompose

from uqi.qcore import (
    DEFAULT_REGISTER,
    PAULI,
    DensityMatrix,
    Register,
    basis_ket,
    embed,
    partial_transpose,
)

I2 = np.eye(2)


# the register's tensor-product convention: the leftmost wire is the most
# significant factor, so embedding matches np.kron in register order


def test_kron_identity():
    assert np.array_equal(embed(I2, ["a"], Register(("a", "b"))), np.eye(4))


def test_kron_diagonal_product():
    reg = Register(("a", "b"))
    zz = embed(PAULI["Z"], ["a"], reg) @ embed(PAULI["Z"], ["b"], reg)
    assert np.array_equal(zz, np.kron(PAULI["Z"], PAULI["Z"]))
    assert np.array_equal(zz, np.diag([1, -1, -1, 1]))


def test_kron_shape_law():
    reg = Register(("a", "b", "c"))
    assert embed(I2, ["b"], reg).shape == (8, 8)
    assert embed(np.ones((4, 4)), ["a", "c"], reg).shape == (8, 8)


def test_register_validation():
    with pytest.raises(ValueError):
        Register(("a", "a"))
    with pytest.raises(ValueError):
        Register(())
    with pytest.raises(ValueError):
        DEFAULT_REGISTER.index("nope")


def test_embed_single_site():
    got = embed(PAULI["X"], ["i1"], DEFAULT_REGISTER)
    want = np.kron(np.kron(I2, PAULI["X"]), np.kron(I2, I2))
    assert np.array_equal(got, want)


def test_embed_adjacent_pair():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    got = embed(cnot, ["s1", "i1"], DEFAULT_REGISTER)
    want = np.kron(cnot, np.eye(4))
    assert np.array_equal(got, want)


def test_embed_nonadjacent_cz_against_bit_oracle():
    # CZ on (i1, s2) acts diagonally: the sign is (-1)^(bit_i1 * bit_s2).
    # The oracle walks all 16 basis states via bit arithmetic.
    ctrl_z = np.diag([1, 1, 1, -1]).astype(complex)
    got = embed(ctrl_z, ["i1", "s2"], DEFAULT_REGISTER)
    oracle = np.zeros((16, 16), dtype=complex)
    for b in range(16):
        bit_i1 = (b >> 2) & 1  # wire order s1,i1,i2,s2: i1 is bit 2 from the left
        bit_s2 = b & 1
        oracle[b, b] = -1.0 if bit_i1 and bit_s2 else 1.0
    assert np.allclose(got, oracle, atol=1e-14)
    # frozen oracle values: both i1 and s2 are set in 0101 and 0111,
    # so CZ flips the sign of both basis states
    assert oracle[0b0101, 0b0101] == -1.0
    assert oracle[0b0111, 0b0111] == -1.0
    assert oracle[0b0100, 0b0100] == 1.0
    assert oracle[0b0011, 0b0011] == 1.0


def test_embed_permuted_targets():
    # a control-on-first-wire CNOT with targets reversed must equal the
    # control-on-second-wire matrix built by hand
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    reg = Register(("a", "b"))
    got = embed(cnot, ["b", "a"], reg)
    want = np.zeros((4, 4), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            want[((a ^ b) << 1) | b, (a << 1) | b] = 1.0
    assert np.allclose(got, want, atol=1e-14)


def test_embed_errors():
    with pytest.raises(ValueError):
        embed(PAULI["X"], ["nope"], DEFAULT_REGISTER)
    with pytest.raises(ValueError):
        embed(np.eye(4), ["i1"], DEFAULT_REGISTER)
    with pytest.raises(ValueError):
        embed(np.eye(4), ["i1", "i1"], DEFAULT_REGISTER)


def test_density_matrix_validation():
    reg = Register(("a",))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]), reg)  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), reg)  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]), reg)  # negative eigenvalue
    rho = DensityMatrix.from_ket(basis_ket("0"), reg)
    assert rho.mat[0, 0] == 1.0
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.0  # frozen array


_MIXED = [[0.36, -0.48j], [0.48j, 0.64]]


@pytest.mark.parametrize("ket, want", [
    ([1e200, 1.0], [[1.0, 1e-200], [1e-200, 0.0]]),  # the norm's squares overflowed
    ([1e-13, 0.0], [[1.0, 0.0], [0.0, 0.0]]),  # it was taken for a zero ket
    *((scale * np.array([3.0, 4.0j]), _MIXED) for scale in (5e-324, 1e-300, 1.0, 1e300)),
], ids=["1e200", "1e-13", "5e-324", "1e-300", "1", "1e300"])
def test_from_ket_normalizes_a_ket_at_any_scale(ket, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = DensityMatrix.from_ket(ket, Register(("a",)))
    assert np.allclose(rho.mat, want, rtol=1e-15, atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    ra = random_density_matrix(rng, Register(("a", "b")))
    rb = random_density_matrix(rng, Register(("c", "d")))
    red = partial_trace_stack(np.kron(ra.mat, rb.mat)[None], Register(("a", "b", "c", "d")), ["a", "b"])
    assert np.allclose(red[0], ra.mat, atol=1e-12)


def test_partial_trace_bell_pair():
    bell = (basis_ket("01") - basis_ket("10")) / np.sqrt(2)
    rho = DensityMatrix.from_ket(bell, Register(("a", "b")))
    red = partial_trace_stack(rho.mat[None], rho.register, ["a"])
    assert np.allclose(red[0], np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_mixed_four_wire_state():
    # the post-mixer state: object weights on s-wires, a common idler state
    # |Xi><Xi| on (i1, i2); tracing the idlers leaves the signal coherences
    t, g = 0.7, 0.9
    xi = np.kron([1, -1], [1, 1]).astype(complex) / 2
    xixi = np.outer(xi, xi.conj())
    e2 = np.eye(2, dtype=complex)
    k = {(a, b): np.outer(e2[a], e2[b]) for a in (0, 1) for b in (0, 1)}
    sigma = 0.5 * (
        t**2 * np.kron(np.kron(k[1, 1], xixi), k[0, 0])
        + (1 - t**2) * np.kron(np.kron(k[1, 1], np.outer(np.eye(4)[0], np.eye(4)[0])), k[0, 0])
        + t * np.exp(1j * g) * np.kron(np.kron(k[1, 0], xixi), k[0, 1])
        + t * np.exp(-1j * g) * np.kron(np.kron(k[0, 1], xixi), k[1, 0])
        + np.kron(np.kron(k[0, 0], xixi), k[1, 1])
    )
    reg = Register(("s1", "i1", "i2", "s2"))
    red = partial_trace_stack(DensityMatrix(sigma, reg).mat[None], reg, ["s1", "s2"])[0]
    assert abs(red[2, 2] - 0.5) < 1e-12
    assert abs(red[1, 1] - 0.5) < 1e-12
    assert abs(red[2, 1] - t * np.exp(1j * g) / 2) < 1e-12
    assert abs(red[1, 2] - t * np.exp(-1j * g) / 2) < 1e-12


@pytest.mark.parametrize("keep", [["s1", "s2"], ["i2"], ["s2", "i1"]])
def test_partial_trace_adds_terms_in_the_order_of_the_discarded_values(keep):
    # each reduced entry is 0 plus its term at each value of the discarded wires, ascending on the
    # register: the order the engine's byte contract rests on, whatever order the groups are held in
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(5, 16, 16)) + 1j * rng.normal(size=(5, 16, 16))
    kept = DEFAULT_REGISTER.positions(keep)
    rest = [i for i in range(4) if i not in kept]
    want = np.zeros((5, 2 ** len(keep), 2 ** len(keep)), dtype=complex)
    for value in itertools.product((0, 1), repeat=len(rest)):
        rows = []
        for bits in itertools.product((0, 1), repeat=len(keep)):
            wires = dict(zip(kept, bits)) | dict(zip(rest, value))
            rows.append(sum(wires[i] << (3 - i) for i in range(4)))
        want += stack[:, np.array(rows)[:, None], rows]
    assert partial_trace_stack(stack, DEFAULT_REGISTER, keep).tobytes() == want.tobytes()


def test_partial_trace_empty_keep_rejected():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    with pytest.raises(ValueError):
        partial_trace_stack(rho.mat[None], DEFAULT_REGISTER, [])


def test_partial_trace_unitary_invariance_on_discarded_wires():
    rng = np.random.default_rng(5)
    stack, rotated = [], []
    for _ in range(25):
        rho = random_density_matrix(rng, DEFAULT_REGISTER)
        ue = embed(random_unitary(rng, 4), ["i1", "i2"], DEFAULT_REGISTER)
        stack.append(rho.mat)
        rotated.append(ue @ rho.mat @ ue.conj().T)
    a = partial_trace_stack(np.array(stack), DEFAULT_REGISTER, ["s1", "s2"])
    b = partial_trace_stack(np.array(rotated), DEFAULT_REGISTER, ["s1", "s2"])
    assert np.allclose(a, b, atol=1e-12)


def test_partial_transpose_product_state_stays_positive():
    rng = np.random.default_rng(2)
    ra = random_density_matrix(rng, Register(("a",)))
    rb = random_density_matrix(rng, Register(("b",)))
    joint = DensityMatrix(np.kron(ra.mat, rb.mat), Register(("a", "b")))
    eigs = np.linalg.eigvalsh(partial_transpose(joint, ["b"]))
    assert eigs.min() >= -1e-12


def test_partial_transpose_bell_minimum():
    bell = (basis_ket("01") - basis_ket("10")) / np.sqrt(2)
    rho = DensityMatrix.from_ket(bell, Register(("a", "b")))
    eigs = np.linalg.eigvalsh(partial_transpose(rho, ["b"]))
    assert abs(eigs.min() + 0.5) < 1e-12


def test_partial_transpose_hermitian_and_trace_preserving():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    pt = partial_transpose(rho, ["s1", "i1"])
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_involution_is_exact():
    # on a separable state the transposed matrix is again a valid state,
    # so the public operation can be applied twice; pure index shuffling
    # must restore the input bit for bit
    rng = np.random.default_rng(30)
    parts = [random_density_matrix(rng, Register((w,))).mat for w in DEFAULT_REGISTER.wires]
    m = parts[0]
    for p in parts[1:]:
        m = np.kron(m, p)
    rho = DensityMatrix(m, DEFAULT_REGISTER)
    once = partial_transpose(rho, ["i1", "s2"])
    twice = partial_transpose(DensityMatrix(once, DEFAULT_REGISTER), ["i1", "s2"])
    assert np.array_equal(twice, rho.mat)


def test_partial_transpose_invalid_subsystem():
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    with pytest.raises(ValueError):
        partial_transpose(rho, [])
    with pytest.raises(ValueError):
        partial_transpose(rho, list(DEFAULT_REGISTER.wires))


def test_pauli_decompose_identity():
    assert pauli_decompose(np.eye(4)) == {"II": 1.0}


@pytest.mark.parametrize(
    "ket_a,ket_b,sign,expected",
    [
        ("01", "10", -1, {"II": 0.25, "XX": -0.25, "YY": -0.25, "ZZ": -0.25}),
        ("00", "11", +1, {"II": 0.25, "XX": 0.25, "YY": -0.25, "ZZ": 0.25}),
    ],
)
def test_pauli_decompose_bell_projectors(ket_a, ket_b, sign, expected):
    ket = (basis_ket(ket_a) + sign * basis_ket(ket_b)) / np.sqrt(2)
    rho = np.outer(ket, ket.conj())
    got = pauli_decompose(rho)
    assert list(got) == list(expected)  # IXYZ order
    for label, c in expected.items():
        assert got[label] == pytest.approx(c, abs=1e-12)


def test_pauli_roundtrip_random_hermitian():
    rng = np.random.default_rng(6)
    for wires in (("a",), ("a", "b"), ("s1", "i1", "i2", "s2")):
        reg = Register(wires)
        m = random_hermitian(rng, reg.dim)
        terms = pauli_decompose(m)
        assert len(terms) <= 4 ** reg.n
        # m = sum_P c_P P, each string's matrix built from its letters
        back = sum(c * functools.reduce(np.kron, (PAULI[w] for w in label)) for label, c in terms.items())
        assert np.allclose(back, m, atol=1e-12)


def test_pauli_decompose_shape_check():
    for m in (np.eye(3), np.eye(1), np.ones((2, 4))):
        with pytest.raises(ValueError, match="is not 2\\*\\*n x 2\\*\\*n with n >= 1"):
            pauli_decompose(m)


def test_probe_partial_transpose_minimum_via_direct_eigensolve():
    ket = (basis_ket("1100") + basis_ket("0011")) / np.sqrt(2)
    rho = DensityMatrix.from_ket(ket, DEFAULT_REGISTER)
    pt = partial_transpose(rho, ["s1", "i1"])
    # independent oracle: raw numpy eigensolver on the 16x16 matrix
    assert abs(np.linalg.eigvalsh(pt).min() + 0.5) < 1e-12


def test_reordered_is_consistent_with_kron():
    rng = np.random.default_rng(8)
    ra = random_density_matrix(rng, Register(("a",)))
    rb = random_density_matrix(rng, Register(("b",)))
    joint = DensityMatrix(np.kron(ra.mat, rb.mat), Register(("a", "b")))
    swapped = joint.reordered(["b", "a"])
    assert np.allclose(swapped, np.kron(rb.mat, ra.mat), atol=1e-14)
