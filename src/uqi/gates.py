"""Gates of the probe-preparation chain.

Hadamard and CNOT with selectable control polarity, applied by unitary
conjugation of a :class:`DensityMatrix`.  The measurement's phase shifter
acts inside :func:`uqi.circuit.measurement_stack`.
"""

from __future__ import annotations

import numpy as np

from .qcore import ATOL, DensityMatrix, _value_class, as_complex_matrix, embed


@_value_class
class Gate:
    name: str
    matrix: np.ndarray
    arity: int

    def __post_init__(self):
        m = as_complex_matrix(self.matrix).copy()
        d = 2 ** self.arity
        if m.shape != (d, d):
            raise ValueError(f"gate {self.name!r}: shape {m.shape} does not match arity {self.arity}")
        if np.max(np.abs(m.conj().T @ m - np.eye(d))) > ATOL:
            raise ValueError(f"gate {self.name!r} is not unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hadamard() -> Gate:
    m = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return Gate("H", m, 1)


def cnot(control_value: int = 1) -> Gate:
    """CNOT on (control, target); flips the target when the control qubit
    equals ``control_value``.  ``control_value=0`` is the polarity used by
    the first gate of the probe-preparation chain.
    """
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    m = np.zeros((4, 4), dtype=complex)
    for c in (0, 1):
        for t in (0, 1):
            t_out = t ^ 1 if c == control_value else t
            m[(c << 1) | t_out, (c << 1) | t] = 1.0
    return Gate(f"CNOT{control_value}", m, 2)


def apply_unitary(rho: DensityMatrix, gate: Gate, targets) -> DensityMatrix:
    """Conjugate the state: ``rho -> U rho U^†`` with U embedded on ``targets``."""
    targets = list(targets)
    if len(targets) != gate.arity:
        raise ValueError(
            f"gate {gate.name!r} has arity {gate.arity} but got {len(targets)} target(s)"
        )
    u = embed(gate.matrix, targets, rho.register)
    return DensityMatrix(u @ rho.mat @ u.conj().T, rho.register)
