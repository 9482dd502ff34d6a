import numpy as np
import pytest
from conftest import random_density_matrix

from uqi.circuit import Gate, apply_unitary, cnot, hadamard, measurement_stack
from uqi.qcore import DEFAULT_REGISTER, PAULI, DensityMatrix, Register, basis_ket

ATOL = 1e-12
CZ = Gate("CZ", np.diag([1, 1, 1, -1]))


def test_hadamard_on_zero():
    h = hadamard().matrix
    out = h @ np.array([1, 0], dtype=complex)
    assert np.allclose(out, np.array([1, 1]) / np.sqrt(2), atol=ATOL)


def test_hadamard_squares_to_identity():
    h = hadamard().matrix
    assert np.allclose(h @ h, np.eye(2), atol=ATOL)


def test_all_gates_unitary():
    for g in (hadamard(), cnot(0), cnot(1)):
        u = g.matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < ATOL


def test_gate_rejects_non_unitary():
    with pytest.raises(ValueError):
        Gate("bad", np.array([[1, 0], [0, 2]]))


def test_cnot_control_on_1():
    assert np.allclose(cnot(1).matrix @ basis_ket("10"), basis_ket("11"), atol=ATOL)
    assert np.allclose(cnot(1).matrix @ basis_ket("00"), basis_ket("00"), atol=ATOL)


def test_cnot_control_on_0():
    assert np.allclose(cnot(0).matrix @ basis_ket("00"), basis_ket("01"), atol=ATOL)
    assert np.allclose(cnot(0).matrix @ basis_ket("10"), basis_ket("10"), atol=ATOL)


def test_cnot_reads_its_control_as_an_integer():
    # the control is read with operator.index, so True and numpy integers name the gate by their value
    assert cnot(True) == cnot(1) and cnot(True).name == "CNOT1"
    assert cnot(np.int64(0)) == cnot(0) and cnot(np.int64(0)).name == "CNOT0"


def test_cnot_polarity_validation():
    with pytest.raises(ValueError):
        cnot(2)


def _detector_contrast(phi):
    # m_g - m_h: the Bell contrast (XX + YY)/2 after the phase shifter Z_phi on s2
    m_h, m_g = measurement_stack([phi])[0]
    return m_g - m_h


def test_phase_shifter_quarter_turn_maps_x_to_y():
    # at phi = pi/2 the shifter maps X to Y on s2, so XX + YY turns into XY - YX
    x, y = PAULI["X"], PAULI["Y"]
    want = (np.kron(x, y) - np.kron(y, x)) / 2
    assert np.allclose(_detector_contrast(np.pi / 2), want, atol=ATOL)


def test_phase_shifter_conjugation_identities():
    # Z_phi X Z_phi^† = cos(phi) X + sin(phi) Y and Z_phi Y Z_phi^† =
    # -sin(phi) X + cos(phi) Y, read off the detector contrast over 100
    # random phases
    rng = np.random.default_rng(42)
    x, y = PAULI["X"], PAULI["Y"]
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, size=100):
        zxz = np.cos(phi) * x + np.sin(phi) * y
        zyz = -np.sin(phi) * x + np.cos(phi) * y
        want = (np.kron(x, zxz) + np.kron(y, zyz)) / 2
        assert np.max(np.abs(_detector_contrast(phi) - want)) < ATOL


def test_apply_unitary_involution():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    h = hadamard()
    back = apply_unitary(apply_unitary(rho, h, ["i2"]), h, ["i2"])
    assert np.allclose(back.mat, rho.mat, atol=ATOL)


def test_apply_unitary_flips_basis_state():
    rho = DensityMatrix.from_ket(basis_ket("0"), Register(("a",)))
    out = apply_unitary(rho, Gate("X", PAULI["X"]), ["a"])
    assert np.allclose(out.mat, np.diag([0.0, 1.0]), atol=ATOL)


def test_preparation_chain_first_two_gates():
    # H on i2 then a control-on-0 CNOT (i2 -> i1) creates the one-photon
    # superposition (|0100> + |0010>)/sqrt(2)
    rho = DensityMatrix.from_ket(basis_ket("0000"), DEFAULT_REGISTER)
    rho = apply_unitary(rho, hadamard(), ["i2"])
    rho = apply_unitary(rho, cnot(0), ["i2", "i1"])
    want = (basis_ket("0100") + basis_ket("0010")) / np.sqrt(2)
    assert np.allclose(rho.mat, np.outer(want, want.conj()), atol=ATOL)


def test_apply_unitary_preserves_trace_and_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density_matrix(rng, DEFAULT_REGISTER)
        out = apply_unitary(rho, CZ, ["s1", "s2"])
        assert abs(np.trace(out.mat).real - 1.0) < ATOL
        a = np.linalg.eigvalsh(rho.mat)
        b = np.linalg.eigvalsh(out.mat)
        assert np.max(np.abs(a - b)) < ATOL


def test_apply_unitary_arity_mismatch():
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng, DEFAULT_REGISTER)
    # embed checks the gate against its targets
    with pytest.raises(ValueError, match=r"^operator shape \(4, 4\) does not match 1 target wire\(s\)$"):
        apply_unitary(rho, CZ, ["s1"])
