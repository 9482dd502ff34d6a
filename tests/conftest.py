import numpy as np

from uqi.circuit import BatchReadout, measurement_stack, pipeline_stages, prepare_probe, run_batch
from uqi.qcore import DEFAULT_REGISTER, DensityMatrix, Register, partial_trace_stack


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
