import numpy as np
from verifiers import partial_trace_stack

from uqi.channels import TP_VIOLATED, ModeMixer, fold_angles, object_kraus, tp_deviation
from uqi.circuit import MIXER_VANISHED, BatchReadout, measurement_stack, pipeline_stages, prepare_probe, run_batch
from uqi.qcore import (
    ATOL,
    DEFAULT_REGISTER,
    DensityMatrix,
    Register,
    _stack_errors,
    embed,
)


def random_density_matrix(rng, register: Register) -> DensityMatrix:
    d = register.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, register)


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def angle_diff(a: float, b: float) -> float:
    """Signed angular difference folded into (-pi, pi]."""
    return (a - b + np.pi) % (2 * np.pi) - np.pi


def four_wire_register() -> Register:
    return DEFAULT_REGISTER


def readout(probe, ts, gammas, phis) -> np.ndarray:
    """``(P_h, P_g)`` of every setting at every phase, shape ``(n, P, 2)``; every setting must pass."""
    batch = run_batch(probe, ts, gammas, measurement_stack(phis))
    assert batch.errors == (None,) * len(batch.errors)
    return batch.values


def unmixed_readout(probe: DensityMatrix, ts, gammas, phis) -> np.ndarray:
    """:func:`readout` of the circuit without the mode mixer, from the engine's post-object stack.

    Both idlers are traced out of ``post_object`` and each signal state is
    read out as ``Tr[R rho]``; shape ``(n, P, 2)``.
    """
    stages = pipeline_stages(probe, ts, gammas)
    assert stages.errors == (None,) * len(stages.errors)
    signal = partial_trace_stack(stages.post_object, probe.register, ["s1", "s2"])
    return np.einsum("pkab,nba->npk", measurement_stack(phis), signal).real


def fail_second_setting(run_batch):
    """``run_batch`` with its second setting failed, as a failed engine check leaves it."""
    def wrapped(*args):
        batch = run_batch(*args)
        batch.values[1] = np.nan
        return BatchReadout(batch.values, (batch.errors[0], "engine check failed", *batch.errors[2:]))

    return wrapped


def sweep_points(t, g, phis, shots=0, seed=None):
    """``[(phi, P_h), ...]`` of the Bell probe; with shots, drawn in phase order from ``default_rng(seed)``."""
    p_h = readout(prepare_probe(), [t], [g], phis)[0, :, 0]
    rng = np.random.default_rng(seed) if shots else None
    pts = []
    for p, v in zip(phis, p_h):
        if shots:
            v = rng.binomial(shots, min(max(v, 0.0), 1.0)) / shots
        pts.append((p, float(v)))
    return pts


def stack_errors(stack) -> list:
    """``state_errors`` of whole ``(n, d, d)`` states, on the rows and columns where some state is non-zero."""
    return _stack_errors(stack).tolist()


def _kraus_on_i1(stack, kraus) -> np.ndarray:
    """``sum_k K_k rho K_k^†`` on ``i1`` of whole ``(n, 16, 16)`` states, one superoperator matmul per state."""
    n, reg = len(stack), DEFAULT_REGISTER
    idx = reg.positions(["i1"])
    rest = [i for i in range(reg.n) if i not in idx]
    # axes: n, i1 row, i1 column, other rows, other columns
    order = [0] + [1 + i for i in idx] + [1 + reg.n + i for i in idx]
    order += [1 + i for i in rest] + [1 + reg.n + i for i in rest]
    tensor = stack.reshape((n,) + (2,) * (2 * reg.n)).transpose(order)
    sup = np.einsum("nkab,nkdc->nadbc", kraus, kraus.conj()).reshape(n, 4, 4)
    out = (sup @ tensor.reshape(n, 4, reg.dim**2 // 4)).reshape(tensor.shape)
    return out.transpose(np.argsort(order)).reshape(n, reg.dim, reg.dim)


def reference_stages(probe, t, gamma):
    """The engine's stages computed on whole ``(n, 16, 16)`` stacks, as one pass over every setting.

    ``probe`` is one :class:`DensityMatrix` on ``DEFAULT_REGISTER`` or a
    sequence of one per setting.  Returns the post-object, post-mixer and
    signal stacks and each setting's first failed check, in the engine's
    order: Kraus trace preservation, the state checks after the object,
    the mixer's normalization, then the state checks after the mixer and
    on the signal.
    """
    t, gamma = np.asarray(t, dtype=float), np.asarray(gamma, dtype=float)
    if isinstance(probe, DensityMatrix):
        start = np.broadcast_to(probe.mat, (t.size, 16, 16))
    else:
        start = np.stack([p.mat for p in probe])
    errors = np.full(t.size, None, dtype=object)

    def record(new):
        pending = np.equal(errors, None)
        errors[pending] = np.asarray(new, dtype=object)[pending]

    kraus = object_kraus(t, fold_angles(gamma))
    record(np.where(tp_deviation(kraus) > ATOL, TP_VIOLATED, None))
    post_object = _kraus_on_i1(start, kraus)
    record(stack_errors(post_object))
    m = embed(ModeMixer.op, ["i1", "i2"], DEFAULT_REGISTER)
    num = m @ post_object @ m.conj().T
    norm = np.trace(num, axis1=1, axis2=2).real
    vanished = norm <= 1e-14
    post_mixer = num / np.where(vanished, 1.0, norm)[:, None, None]
    record(np.where(vanished, MIXER_VANISHED, None))
    record(stack_errors(post_mixer))
    # wires (s1, i1, i2, s2) on rows and columns; contract i1 and i2
    signal = np.einsum("zabcdebcf->zadef", post_mixer.reshape((t.size,) + (2,) * 8)).reshape(t.size, 4, 4)
    record(stack_errors(signal))
    return post_object, post_mixer, signal, tuple(errors)


def reference_readout(probe, t, gamma, readout):
    """``(values, errors)`` of :func:`run_batch` from :func:`reference_stages`: ``Tr[R rho]``, NaN where a check failed."""
    *_, signal, errors = reference_stages(probe, t, gamma)
    values = np.einsum("rij,nji->nr", np.reshape(readout, (-1, 4, 4)), signal).real
    values[~np.equal(errors, None)] = np.nan
    return values.reshape((len(signal),) + np.shape(readout)[:-2]), errors
