"""Quantum operations: the object channel, its chi form, and the mode mixer.

The semi-transparent object is an amplitude-damping channel with a
transmission phase.  With ``k = T e^{i gamma}`` its Kraus operators are::

    K0 = [[1, 0],      K1 = [[0, sqrt(1 - T^2)],
          [0, k]]            [0, 0           ]]

and the resulting action on a single-qubit state is entrywise::

    rho00 -> rho00 + (1 - T^2) rho11      rho01 -> T e^{-i gamma} rho01
    rho11 -> T^2 rho11                    rho10 -> T e^{+i gamma} rho10

The mode mixer is the renormalizing (hence nonlinear) operation that makes
the two idler wires indistinguishable: both ``|01>`` and ``|10>`` are sent
to a fixed state ``|Xi>``, the rest of the two-wire space is untouched.
"""

from __future__ import annotations

import numpy as np

from .qcore import ATOL, PAULI, PSD_SLACK, _block_trace, _value_class, as_complex_matrix

_PAULI_SEQ = (PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"])


def fold_angles(theta) -> np.ndarray:
    """Fold angles into (-pi, pi], elementwise."""
    out = (np.asarray(theta, dtype=float) + np.pi) % (2 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def _check_object_params(t, gamma) -> None:
    """Raise ValueError for the first setting, in row-major order, with ``t`` outside [0, 1] or a non-finite ``gamma``."""
    t = np.asarray(t, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    bad = np.flatnonzero(~((t >= 0.0) & (t <= 1.0) & np.isfinite(gamma)))
    if bad.size:
        t, gamma = float(t.flat[bad[0]]), float(gamma.flat[bad[0]])
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmission must lie in [0, 1], got {t}")
        raise ValueError(f"phase must be finite, got {gamma}")


@_value_class
class ObjectParams:
    """Transmission amplitude ``t`` in [0, 1] and a finite phase ``gamma`` in radians."""

    t: float
    gamma: float = 0.0

    def __post_init__(self):
        t, gamma = float(self.t), float(self.gamma)
        _check_object_params(t, gamma)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "gamma", float(fold_angles(gamma)))


TP_VIOLATED = "Kraus operators violate the trace-preserving condition"


def tp_deviation(kraus) -> np.ndarray:
    """Largest entry of ``|sum_k K_k^† K_k - I|`` per Kraus set of an ``(n, K, d, d)`` stack."""
    total = np.einsum("nkab,nkac->nbc", kraus.conj(), kraus)
    return np.abs(total - np.eye(kraus.shape[-1])).max(axis=(1, 2))


@_value_class
class KrausChannel:
    """Completely positive trace-preserving map as a list of Kraus operators.

    Trace preservation (``sum K^† K = I`` within 1e-12) is enforced at
    construction; complete positivity is automatic in this form.
    """

    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k).copy() for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError("all Kraus operators must share one square shape")
        if tp_deviation(np.stack(ops)[None])[0] > ATOL:
            raise ValueError(TP_VIOLATED)
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    def apply(self, mat) -> np.ndarray:
        """Channel action on a bare matrix of the channel's own dimension."""
        mat = as_complex_matrix(mat)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"input shape {mat.shape} does not match channel dimension {self.dim}")
        out = np.zeros_like(mat)
        for k in self.kraus_ops:
            out += k @ mat @ k.conj().T
        return out


def object_kraus(t, gamma) -> np.ndarray:
    """``(n, 2, 2, 2)`` stack of the Kraus pairs ``(K0, K1)`` of n object settings.

    The settings are taken as valid (see :func:`_check_object_params`).
    """
    t = np.asarray(t, dtype=float)
    kraus = np.zeros((t.size, 2, 2, 2), dtype=complex)
    kraus[:, 0, 0, 0] = 1.0
    kraus[:, 0, 1, 1] = t * np.exp(1j * np.asarray(gamma, dtype=float))
    kraus[:, 1, 0, 1] = np.sqrt(1.0 - t ** 2)
    return kraus


def object_channel(params: ObjectParams) -> KrausChannel:
    """Amplitude-damping-with-phase channel of a semi-transparent object."""
    return KrausChannel(tuple(object_kraus([params.t], [params.gamma])[0]))


@_value_class
class ChiMatrix:
    """Process matrix in the normalized Pauli basis ``sigma_alpha / sqrt(2)``.

    Defined by the round-trip identity
    ``E[rho] = (1/2) sum_{ab} chi_ab sigma_a rho sigma_b``; the identity
    channel therefore has the single entry ``chi_00 = 2``.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.entries).copy()
        if m.shape != (4, 4):
            raise ValueError(f"chi matrix must be 4x4, got {m.shape}")
        if np.max(np.abs(m / 2 - m.conj().T / 2)) > ATOL / 2:  # halved first, so no difference overflows
            raise ValueError("chi matrix is not Hermitian")
        if np.linalg.eigvalsh(m).min() < -PSD_SLACK:
            raise ValueError("chi matrix is not positive semidefinite within 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def chi_matrix(ch: KrausChannel) -> ChiMatrix:
    """Chi representation of a single-qubit channel.

    Each Kraus operator is expanded as ``K_l = sum_a a_la sigma_a/sqrt(2)``
    and ``chi_ab = sum_l a_la a*_lb``.
    """
    if ch.dim != 2:
        raise ValueError("chi matrix is defined here for single-qubit channels only")
    coeffs = np.array(
        [[np.trace(s @ k) / np.sqrt(2) for s in _PAULI_SEQ] for k in ch.kraus_ops]
    )
    return ChiMatrix(coeffs.T @ coeffs.conj())


@_value_class
class ModeMixer:
    """Two-wire operator sending both ``|01>`` and ``|10>`` to ``|Xi> = |-> (x) |+>``.

    ``|00>`` and ``|11>`` are left untouched.  ``xi`` and its 4x4 operator
    ``op`` are fixed, read-only and shared by every instance.  The signal
    state sees ``|Xi>`` only through ``M^†M``, where ``<00|Xi>`` and
    ``<11|Xi>`` couple the idler sectors ``{01, 10}`` and ``{00, 11}``.  So
    when the post-object state has no coherence between those sectors, as
    for the Bell and Werner probes, every readout is the same for any unit
    ``|Xi>``; for other probes it need not be.
    """

    xi = np.kron(np.array([1.0, -1.0], dtype=complex) / np.sqrt(2), np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    op = np.outer(xi, [0, 1, 1, 0]) + np.diag([1, 0, 0, 1])
    xi.setflags(write=False)
    op.setflags(write=False)


MIXER_VANISHED = "mode mixer normalization vanished: state has no support on the mixer"


def mix_stack(stack, m, rows, dim: int, mixed, out) -> tuple[np.ndarray, np.ndarray]:
    """Renormalizing mixer action ``rho -> M rho M^† / Tr[M rho M^†]`` per state of a block stack.

    The ``(n, k, k)`` stack holds some rows and columns of states on a
    register of dimension ``dim``, zero elsewhere; ``m`` is the mixer
    embedded on that register, restricted to those columns and to the rows
    ``rows`` (ascending) that they reach.  Both are ascending, so each
    product adds the terms of the full product that are not zero, in the
    same order.  Nonlinear by construction.  ``M rho`` is formed in
    ``mixed``, an ``(n, len(rows), k)`` complex array, and the states are
    formed and renormalized in ``out``, a C-contiguous
    ``(n, len(rows), len(rows))`` complex array, which is returned with a
    mask of the states whose normalization vanished (at most 1e-14), i.e.
    that have no overlap with the mixer's support; those are left
    unnormalized.
    """
    np.matmul(np.matmul(m, stack, out=mixed), m.conj().T, out=out)
    norm = _block_trace(out, rows, dim).real
    vanished = norm <= 1e-14
    # the division of num / norm, in place: the same ufunc on the same operands, so the same bits
    np.divide(out, np.where(vanished, 1.0, norm)[:, None, None], out=out)
    return out, vanished
