"""Test-side verifiers: reference computations that check the library and that no ``uqi`` command runs.

The Pauli expansion, the Choi matrix and its positivity test, the chi
round trip, the operator-Schmidt sum and the Kraus action on a stack each
restate what the library computes another way.  The Heisenberg-picture
oracle gives every readout of the engine in closed form:

    ``Tr[R sigma] = Tr[rho O_R] / Tr[rho N]``

for the signal state ``sigma`` of a probe ``rho``, with
``O_R = sum_k K_k^† (R on (s1, s2)) (x) (M^†M on (i1, i2)) K_k`` and
``N = sum_k K_k^† (M^†M on (i1, i2)) K_k``, the object's Kraus pair
``K_k`` acting on ``i1`` and ``M`` the mode mixer.  The readout ``R`` on
the signals commutes with ``M`` on the idlers, so ``M^† (R (x) I) M`` is
``R (x) M^†M``, and the mixer's normalization is ``Tr[rho N]``.

The object's Kraus pair makes ``O_R`` and ``N`` affine in ``T^2``,
``T e^{i gamma}`` and ``T e^{-i gamma}``, and each detector operator of
``measurement_stack`` is affine in ``cos phi`` and ``sin phi``; so each
detector's fringe ``P(phi) = a + b cos phi + c sin phi`` has ``a``, ``b``
and ``c`` in closed form in ``(T, gamma)`` (:func:`fringe`).
"""

import functools
import itertools
import math

import numpy as np

from uqi.channels import _PAULI_SEQ, ChiMatrix, KrausChannel, ModeMixer, ObjectParams, object_channel
from uqi.circuit import measurement_stack
from uqi.qcore import (
    DEFAULT_REGISTER,
    PAULI,
    PSD_SLACK,
    DensityMatrix,
    Register,
    _kraus_tensor,
    _superoperator,
    _trace_groups,
    _traced,
    as_complex_matrix,
    embed,
)
from uqi.tomography import SchmidtData


def _unit_scaled(m) -> tuple[np.ndarray, int]:
    """``(m / 2**e, e)`` for a finite complex array, with the least ``e`` that brings every real and imaginary part
    within 1: exact for parts in the normal range, so that a sum over the parts can no longer overflow."""
    parts = np.ascontiguousarray(m).view(float)
    e = int(np.frexp(np.abs(parts).max(initial=0.0))[1])
    return np.ldexp(parts, -e).view(complex), e


def pauli_decompose(m) -> dict[str, complex]:
    """Expand a ``2**n x 2**n`` matrix over the Pauli strings of n wires.

    Returns ``{label: c_P}`` with ``c_P = Tr[P m] / 2^n``, one letter of
    ``IXYZ`` per wire, in ``IXYZ`` order; terms below 1e-14 in magnitude
    are dropped, so ``m = sum_P c_P P`` over the returned labels.  Each part
    of ``c_P`` is at most ``m``'s largest part in magnitude, so it is finite.
    """
    m = as_complex_matrix(m)
    n = len(m).bit_length() - 1
    if n < 1 or m.shape != (2**n, 2**n):
        raise ValueError(f"matrix shape {m.shape} is not 2**n x 2**n with n >= 1")
    m, e = _unit_scaled(m)  # each coefficient is scaled back by 2**e
    terms = {}
    for letters in itertools.product("IXYZ", repeat=n):
        p = functools.reduce(np.kron, [PAULI[w] for w in letters])
        c = complex(np.einsum("ij,ji->", p, m) / 2**n)
        c = complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
        if abs(c / 2) > 1e-14 / 2:  # halved, so the modulus cannot overflow
            terms["".join(letters)] = c
    return terms


def choi_matrix(channel, dim: int | None = None) -> np.ndarray:
    """Choi matrix from an unnormalized maximally entangled pair.

    ``channel`` is a :class:`KrausChannel` or any callable acting on a
    ``dim x dim`` matrix (callables let non-CP maps, e.g. transposition,
    be probed too).  Layout: ``sum_ij |i><j| (x) E[|i><j|]``.
    """
    if isinstance(channel, KrausChannel):
        fn, d = channel.apply, channel.dim
    else:
        if dim is None:
            raise ValueError("dim is required when passing a bare callable")
        fn, d = channel, dim
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            out += np.kron(unit, as_complex_matrix(fn(unit)))
    return out


def choi_psd_check(channel, dim: int | None = None) -> tuple[bool, float]:
    """Complete-positivity test: Choi positivity within the 1e-10 slack.

    Returns ``(is_psd, min_eigenvalue)``; an eigenvalue beyond the float
    range raises ValueError.
    """
    c, e = _unit_scaled(choi_matrix(channel, dim))  # eigvalsh on parts within 1, scaled back by 2**e
    c = (c + c.conj().T) / 2  # symmetrize rounding noise before eigvalsh
    try:
        min_eig = math.ldexp(float(np.linalg.eigvalsh(c).min()), e)
    except OverflowError:
        raise ValueError("Choi matrix eigenvalue lies beyond the float range") from None
    return min_eig >= -PSD_SLACK, min_eig


def chi_apply(chi: ChiMatrix, mat) -> np.ndarray:
    """The channel action rebuilt from its chi matrix (the round trip): ``(1/2) sum_ab chi_ab sigma_a rho sigma_b``."""
    mat = as_complex_matrix(mat)
    out = np.zeros((2, 2), dtype=complex)
    for a in range(4):
        for b in range(4):
            c = chi.entries[a, b]
            if c != 0:
                out += 0.5 * c * _PAULI_SEQ[a] @ mat @ _PAULI_SEQ[b]
    return out


def schmidt_reconstruct(sd: SchmidtData) -> np.ndarray:
    """``sum_l r_l A_l (x) B_l`` on the (A wires, B wires) ordering."""
    out = np.zeros((sd.dim_a * sd.dim_b,) * 2, dtype=complex)
    for r, a, b in zip(sd.r, sd.a_ops, sd.b_ops):
        out += r * np.kron(a, b)
    return out


def apply_kraus_stack(stack, kraus) -> np.ndarray:
    """``rho -> sum_k K_k rho K_k^†`` on the leading tensor factor of each state of an ``(n, d m, d m)`` stack.

    ``kraus`` is an ``(n, K, d, d)`` stack holding each state's own Kraus
    set.  The set becomes one ``d^2 x d^2`` superoperator per state
    (``qcore._superoperator``, the engine's object stage), which acts on
    the factor's row and column legs of that state by a single batched
    matmul, one column per entry of the other factor.  A state dimension
    that ``d`` does not divide raises ValueError.
    """
    n, d = len(stack), kraus.shape[-1]
    if stack.shape[-1] % d:
        raise ValueError(f"{d}x{d} Kraus operators have no factor in {stack.shape[-1]}x{stack.shape[-1]} states")
    m = stack.shape[-1] // d
    out = (_superoperator(kraus) @ _kraus_tensor(stack, d)).reshape(n, d, d, m, m)
    return out.transpose(0, 1, 3, 2, 4).reshape(n, d * m, d * m)


def partial_trace_stack(stack, reg: Register, keep) -> np.ndarray:
    """Reduced matrices on the ``keep`` wires (in the order given) of an ``(n, d, d)`` stack of states on ``reg``.

    Discarded wires are contracted, so the trace is preserved: each reduced
    entry adds its terms one at a time, in the order of the discarded
    wires' values on the register, through the index groups the engine
    traces its idlers with (``qcore._trace_groups`` on every row).
    Unvalidated: the caller checks the resulting states.
    """
    keep = list(keep)
    return _traced(stack, _trace_groups(reg, keep, range(reg.dim)), 2 ** len(keep))


def heisenberg_operators(t: float, gamma: float, readout) -> tuple[np.ndarray, np.ndarray]:
    """``(O, N)`` of one object setting on ``DEFAULT_REGISTER``: ``O[r]`` is ``O_R`` of the r-th 4x4 operator of
    ``readout`` on ``(s1, s2)``, and ``N`` the normalization operator (module docstring)."""
    reg = DEFAULT_REGISTER
    kraus = [embed(k, ["i1"], reg) for k in object_channel(ObjectParams(t, gamma)).kraus_ops]
    mixer = embed(ModeMixer.op.conj().T @ ModeMixer.op, ["i1", "i2"], reg)

    def pulled_back(op):
        return sum(k.conj().T @ op @ k for k in kraus)

    ops = np.reshape(readout, (-1, 4, 4))
    return np.array([pulled_back(embed(r, ["s1", "s2"], reg) @ mixer) for r in ops]), pulled_back(mixer)


def heisenberg_readout(probe, t, gamma, readout) -> np.ndarray:
    """``Tr[rho O_R] / Tr[rho N]`` for each of the n settings ``(t[i], gamma[i])`` and each operator of ``readout``,
    shaped as :func:`uqi.circuit.run_batch`'s values; ``probe`` is one state or a sequence of one per setting."""
    t, gamma = np.asarray(t, dtype=float), np.asarray(gamma, dtype=float)
    probes = [probe] * t.size if isinstance(probe, DensityMatrix) else list(probe)
    values = []
    for rho, ti, gi in zip(probes, t, gamma):
        ops, norm = heisenberg_operators(ti, gi, readout)
        values.append(np.einsum("rij,ji->r", ops, rho.mat).real / np.trace(norm @ rho.mat).real)
    return np.reshape(values, (t.size,) + np.shape(readout)[:-2])


def detector_parts() -> np.ndarray:
    """``(3, 2, 4, 4)``: the operators ``(A, B, C)`` of the detector pair, ``measurement_stack([phi])[0] = A + B cos phi
    + C sin phi``.  The phase shifter ``Z_phi`` on ``s2`` scales entry ``(i, j)`` of the Bell projectors by
    ``e^{i phi (s2_i - s2_j)}``."""
    turn = np.subtract.outer(np.arange(4) % 2, np.arange(4) % 2)  # s2_i - s2_j
    return measurement_stack([0.0])[0] * np.array([turn == 0, turn != 0, 1j * turn])[:, None]


def heisenberg_parts(readout) -> np.ndarray:
    """``(4, r + 1, 16, 16)``: the parts ``(X_0, X_2, X_+, X_-)`` of :func:`heisenberg_operators`' ``O_R`` for each
    of the r operators of ``readout``, then of ``N``, with ``X(T, gamma) = X_0 + T^2 X_2 + T e^{i gamma} X_+
    + T e^{-i gamma} X_-``.  Read off ``O`` and ``N`` at T = 0 and at T = 1 with gamma = 0, pi/2 and pi."""
    zero, east, north, west = (
        np.concatenate([ops, norm[None]])
        for ops, norm in (heisenberg_operators(t, g, readout) for t, g in ((0, 0), (1, 0), (1, np.pi / 2), (1, np.pi)))
    )
    even, odd = (east + west) / 2, (east - west) / 2  # X_0 + X_2 and X_+ + X_-
    turn = (north - even) / 1j  # X_+ - X_-
    return np.array([zero, even - zero, (odd + turn) / 2, (odd - turn) / 2])


def fringe(probe, t, gamma) -> np.ndarray:
    """``(n, 2, 3)``: ``(a, b, c)`` of each detector's fringe ``P(phi) = a + b cos phi + c sin phi`` at each of the
    n settings ``(t[i], gamma[i])``, with ``probe`` as in :func:`heisenberg_readout`.

    Each coefficient is ``Tr[rho O_R] / Tr[rho N]`` for one part ``R`` of
    :func:`detector_parts`, written in the closed form of
    :func:`heisenberg_parts` in ``(T, gamma)``.
    """
    t, gamma = np.asarray(t, dtype=float), np.asarray(gamma, dtype=float)
    rhos = np.array([probe.mat] * t.size if isinstance(probe, DensityMatrix) else [p.mat for p in probe])
    weights = np.stack([np.ones_like(t), t**2, t * np.exp(1j * gamma), t * np.exp(-1j * gamma)], axis=1)
    traces = np.einsum("qkij,nji->nqk", heisenberg_parts(detector_parts()), rhos)
    values = np.einsum("nq,nqk->nk", weights, traces).real
    return (values[:, :-1] / values[:, -1:]).reshape(t.size, 3, 2).transpose(0, 2, 1)
