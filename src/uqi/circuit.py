"""The full imaging pipeline on the four-wire register.

Stages, in order: probe preparation (optionally degraded to a Werner
state), the object channel on ``i1``, the mode mixer on ``(i1, i2)``,
discarding of both idler wires, and Bell or phase-shifted measurements on
the signal wires, whose click counts :func:`sample_frequencies` draws.  For the Bell probe the surviving signal state is::

    Upsilon = 1/2 ( |10><10| + T e^{i gamma} |10><01|
                  + T e^{-i gamma} |01><10| + |01><01| )

and the detector statistics follow ``P_{h/g} = (1 -/+ T cos(gamma+phi))/2``.

One engine runs the stages from the object channel on: :func:`run_batch`
takes n object settings as ``(n, 16, 16)`` stacks and reads them out
against a stack of measurement operators (:func:`measurement_stack`);
:func:`pipeline_stages` returns the same pass's stage stacks for
inspection.
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np

from .channels import (
    MIXER_VANISHED,
    TP_VIOLATED,
    ModeMixer,
    apply_kraus_stack,
    fold_angles,
    mix_stack,
    object_kraus,
    object_param_errors,
    tp_deviation,
)
from .gates import apply_unitary, cnot, hadamard
from .qcore import (
    ATOL,
    DEFAULT_REGISTER,
    DensityMatrix,
    Register,
    _value_class,
    basis_ket,
    embed,
    partial_trace_stack,
    state_errors,
)

# Object settings per pass of the batched engine.  A pass holds a few
# (chunk, 16, 16) complex stacks, 0.26 MB each at 64, so peak memory
# stays flat however many settings a call brings.
BATCH_CHUNK = 64
# Rows per step of the readout product (setting, operator) and of the shot
# sampler: 0.26 MB of complex products, however many operators a call reads.
_BLOCK_ROWS = 1024

# the encoded two-qubit subspace: |0bar> = |00>, |1bar> = |11> on each
# (signal, idler) pair, written in the (s1, i1, i2, s2) wire order
ENCODED_BASIS = ("0000", "0011", "1100", "1111")


@cache
def prepare_probe() -> DensityMatrix:
    """Run the preparation chain: H on i2, then three CNOTs.

    The first CNOT fires on control ``|0>`` (together with the Hadamard it
    plays the beam splitter); the other two model the photon-pair sources.
    The result is ``(|1100> + |0011>)/sqrt(2)``.  The chain runs once per
    process; every call returns the same immutable :class:`DensityMatrix`.
    """
    rho = DensityMatrix.from_ket(basis_ket("0000"), DEFAULT_REGISTER)
    rho = apply_unitary(rho, hadamard(), ["i2"])
    rho = apply_unitary(rho, cnot(control_value=0), ["i2", "i1"])
    rho = apply_unitary(rho, cnot(control_value=1), ["i1", "s1"])
    rho = apply_unitary(rho, cnot(control_value=1), ["i2", "s2"])
    return rho


def prepare_werner(xi: float) -> DensityMatrix:
    """Mix the probe with the maximally mixed state of the encoded subspace.

    ``W = (xi/4) * P_encoded + (1 - xi) * |probe><probe|`` where
    ``P_encoded`` projects on span{|0000>, |0011>, |1100>, |1111>}.  The
    state is entangled across (s1,i1)|(i2,s2) exactly for ``xi < 2/3``.
    """
    xi = float(xi)
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must lie in [0, 1], got {xi}")
    mat = (1.0 - xi) * prepare_probe().mat
    for bits in ENCODED_BASIS:
        i = int(bits, 2)
        mat[i, i] += xi / 4.0
    return DensityMatrix(mat, DEFAULT_REGISTER)


def _record(errors: np.ndarray, new) -> None:
    """Keep each setting's first error: take ``new``'s message where there is none yet."""
    pending = np.equal(errors, None)
    errors[pending] = np.asarray(new, dtype=object)[pending]


def _engine_inputs(probe, t, gamma):
    """One engine call's validated inputs: ``(probe, register, t, gamma)``.

    ``probe`` stays the one :class:`DensityMatrix` every setting shares,
    or becomes a tuple of one per setting, all on one register; ``t`` and
    ``gamma`` become flat float arrays of the n settings.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if t.shape != gamma.shape:
        raise ValueError(f"got {t.size} transmissions but {gamma.size} phases")
    if isinstance(probe, DensityMatrix):
        return probe, probe.register, t, gamma
    probe = tuple(probe)
    if len(probe) != t.size or not probe:
        raise ValueError(f"need one probe per setting, got {len(probe)} probes for {t.size} settings")
    first = probe[0].register
    # identity first: the probes of one call usually share one Register object
    if any(p.register is not first and p.register != first for p in probe):
        raise ValueError(f"probes must share one register, got {len({p.register for p in probe})}")
    return probe, probe[0].register, t, gamma


def _start_stack(probe, part: slice, n: int) -> np.ndarray:
    """The ``(n, D, D)`` probe stack of the n settings in ``part``.

    A shared probe is broadcast without a copy; per-setting probes stack
    only the matrices of ``part``.
    """
    if isinstance(probe, DensityMatrix):
        return np.broadcast_to(probe.mat, (n,) + probe.mat.shape)
    return np.stack([p.mat for p in probe[part]])


def _stage_stacks(start: np.ndarray, reg: Register, m: np.ndarray | None, t: np.ndarray, gamma: np.ndarray):
    """One engine pass over the n object settings of the float arrays ``t``, ``gamma``.

    ``start`` holds each setting's probe on ``reg``, and ``m`` is the mixer
    embedded on ``(i1, i2)``, or None to skip mixing.
    Returns the post-object stack, the post-mixer stack (or None), the
    signal stack and each setting's first failed check (None if it passed).
    Every stage gets the checks of :class:`DensityMatrix`; a setting that
    fails one carries on with harmless values and is reported, not raised.
    """
    errors = object_param_errors(t, gamma)
    bad = ~np.equal(errors, None)
    kraus = object_kraus(np.where(bad, 1.0, t), fold_angles(np.where(bad, 0.0, gamma)))
    _record(errors, np.where(tp_deviation(kraus) > ATOL, TP_VIOLATED, None))
    post_object = apply_kraus_stack(start, kraus, ["i1"], reg)
    _record(errors, state_errors(post_object))
    rho, post_mixer = post_object, None
    if m is not None:
        post_mixer, vanished = mix_stack(post_object, m)
        _record(errors, np.where(vanished, MIXER_VANISHED, None))
        _record(errors, state_errors(post_mixer))
        rho = post_mixer
    signal = partial_trace_stack(rho, reg, ["s1", "s2"])
    _record(errors, state_errors(signal))
    return post_object, post_mixer, signal, errors


def _embedded_mixer(reg: Register, mm: ModeMixer | None) -> np.ndarray | None:
    return None if mm is None else embed(mm.op, ["i1", "i2"], reg)


@_value_class
class PipelineStages:
    """The stage stacks of n object settings, from :func:`pipeline_stages`.

    ``post_object`` and ``post_mixer`` are ``(n, 16, 16)`` on the probe's
    register (``post_mixer`` is None without a mixer); ``signal`` is
    ``(n, 4, 4)`` on ``(s1, s2)``.  ``errors[i]`` holds setting i's first
    failed check, or None; the rows of a failed setting hold the harmless
    values the pass carried on with, not a physical state.
    """

    post_object: np.ndarray
    post_mixer: np.ndarray | None
    signal: np.ndarray
    errors: tuple[str | None, ...]


def pipeline_stages(probe, mm: ModeMixer | None, t, gamma) -> PipelineStages:
    """The stages :func:`run_batch` reads out, for the n settings ``(t[i], gamma[i])``.

    ``probe`` is as in :func:`run_batch`.  One engine pass over all n
    settings with the mixer embedded once: the same stacks, checks and
    per-setting messages as in :func:`run_batch`.
    """
    probe, reg, t, gamma = _engine_inputs(probe, t, gamma)
    start = _start_stack(probe, slice(None), t.size)
    post_object, post_mixer, signal, errors = _stage_stacks(start, reg, _embedded_mixer(reg, mm), t, gamma)
    return PipelineStages(post_object, post_mixer, signal, tuple(errors))


@_value_class
class BatchReadout:
    """Readouts of n object settings from :func:`run_batch`.

    ``values[i]`` holds ``Tr[R rho_i]`` for every operator ``R`` of the
    readout stack; a setting that failed a check holds NaN and its message
    in ``errors[i]`` (None for the settings that passed).
    """

    values: np.ndarray
    errors: tuple[str | None, ...]


def run_batch(probe, mm: ModeMixer | None, t, gamma, readout) -> BatchReadout:
    """Object on i1, mixer on (i1, i2), discard the idlers, read out the signals.

    ``t`` and ``gamma`` give the n object settings.  ``probe`` is one
    :class:`DensityMatrix` for every setting, or a sequence of n on one
    register, ``probe[i]`` for setting i; a pass stacks only its own
    probes.  ``readout`` is a ``(..., 4, 4)`` stack of signal observables
    (e.g. from :func:`measurement_stack`), and ``values`` has shape
    ``(n, ...)``.
    Passing ``mm=None`` skips the mixing step, which destroys the
    interference: without indistinguishability the detectors see 1/2 each.
    The settings run in passes of :data:`BATCH_CHUNK`; each setting's
    result does not depend on the others or on the pass size.
    """
    probe, reg, t, gamma = _engine_inputs(probe, t, gamma)
    readout = np.asarray(readout)
    if readout.shape[-2:] != (4, 4):
        raise ValueError(f"readout operators must be 4x4 on (s1, s2), got shape {readout.shape}")
    flat = readout.reshape(-1, 16)
    m = _embedded_mixer(reg, mm)
    values = np.empty((t.size, len(flat)))
    errors = np.full(t.size, None, dtype=object)
    for lo in range(0, t.size, BATCH_CHUNK):
        part = slice(lo, lo + BATCH_CHUNK)
        start = _start_stack(probe, part, t[part].size)
        _, _, signal, chunk_errors = _stage_stacks(start, reg, m, t[part], gamma[part])
        errors[part] = chunk_errors
        # Tr[R rho] = sum_ij R_ij rho_ji as one fixed-length sum per pair, so a
        # setting's value depends neither on how many share its pass nor on
        # how many operators share its step
        rho_t = signal.swapaxes(1, 2).reshape(len(signal), 1, 16)
        step = max(1, _BLOCK_ROWS // len(signal))
        for r in range(0, len(flat), step):
            values[part, r:r + step] = (flat[None, r:r + step] * rho_t).sum(axis=-1).real
    values[~np.equal(errors, None)] = np.nan
    values = values.reshape((t.size,) + readout.shape[:-2])
    return BatchReadout(values, tuple(errors))


_BELL_KETS = {
    "phi+": ("00", "11", +1),
    "phi-": ("00", "11", -1),
    "psi+": ("01", "10", +1),
    "psi-": ("01", "10", -1),
}


def bell_ket(label: str) -> np.ndarray:
    """Two-qubit Bell state by label: phi+/phi-/psi+/psi-."""
    try:
        a, b, sign = _BELL_KETS[label.lower()]
    except KeyError:
        raise ValueError(f"unknown Bell label {label!r}") from None
    return (basis_ket(a) + sign * basis_ket(b)) / np.sqrt(2)


def measurement_stack(phis) -> np.ndarray:
    """``(P, 2, 4, 4)`` stack of the detector pairs ``(m_h, m_g)`` for P phases.

    Each pair is the Bell projectors ``|psi-><psi-|``, ``|psi+><psi+|``
    conjugated by the phase shifter ``Z_phi`` on the second wire, whose
    statistics sweep as ``cos(gamma + phi)`` when the phase runs.  The
    conjugation by ``I (x) Z_phi = diag(u)`` scales entry ``(i, j)`` by
    ``u_i conj(u_j)``.  ``m_h + m_g`` is the projector ``(II - ZZ)/2`` on
    the one-photon subspace at every phase, so ``P_h + P_g = 1`` for the
    Bell probe; a Werner probe leaks weight outside it, and the missing
    weight is the no-click probability.
    """
    phis = np.asarray(phis, dtype=float).reshape(-1)
    u = np.ones((phis.size, 4), dtype=complex)
    u[:, 1] = u[:, 3] = np.exp(1j * phis)
    proj = np.array([np.outer(k, k.conj()) for k in (bell_ket("psi-"), bell_ket("psi+"))])
    out = u[:, None, :, None] * proj[None]
    out *= u.conj()[:, None, None, :]
    out.setflags(write=False)
    return out


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), which
# numpy documents as stable across versions
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _stream_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, *keys[r]]).generate_state(4, np.uint64)`` for every row r at once.

    SeedSequence's hash run as uint32 array operations over an ``(n,)``
    word per entropy position.  The entropy words are the seed's
    little-endian 32-bit words, then one word per key element, so every
    key must lie in [0, 2**32).  Returns an ``(n, 4)`` uint64 array.
    """
    n = len(keys)
    seed_words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.full(n, w, dtype=np.uint32) for w in seed_words] + list(keys.T.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool,
    # read as little-endian pairs
    hash_const = _INIT_B
    state = np.empty((n, 8), dtype="<u4")
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


def _check_sampler(shots: int, seed: int) -> None:
    """The sampler's bounds: a seed of at least 0, and below 2**63 shots, which numpy's binomial takes as a C long."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if shots > 2**63 - 1:
        raise ValueError(f"shots must be below 2**63, got {shots}")


def sample_frequencies(p_h, shots: int, seed: int, keys) -> np.ndarray:
    """Shot estimates ``n_h / shots`` of an ``(n, k)`` array of click probabilities.

    Row ``r`` draws its k binomial counts, in order, from its own
    generator ``default_rng([seed, *keys[r]])``, so a row's counts depend
    on the seed, its key and its own probabilities only.  The n streams
    are seeded in one vectorized pass (:func:`_stream_states`); keys must
    lie in [0, 2**32) and ``shots`` in [1, 2**63).  The probabilities are
    clipped to [0, 1] first, which absorbs the engine's rounding.
    """
    # numpy.random stays out of the import path of the CLI
    from numpy.random.bit_generator import ISeedSequence

    class _RowSeed(ISeedSequence):
        """The current row's precomputed SeedSequence ``state``, which PCG64 seeds itself from."""

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    shots = int(shots)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    seed = operator.index(seed)
    _check_sampler(shots, seed)
    p_h = np.clip(np.asarray(p_h, dtype=float), 0.0, 1.0)
    keys = np.asarray(keys, dtype=np.int64)
    if p_h.ndim != 2 or keys.ndim != 2 or len(keys) != len(p_h):
        raise ValueError(f"need an (n, k) array and (n, m) keys, got shapes {p_h.shape} and {keys.shape}")
    if keys.size and not 0 <= keys.min() <= keys.max() <= _MASK32:
        raise ValueError("stream keys must lie in [0, 2**32)")
    counts = np.empty(p_h.shape, dtype=np.int64)
    states = _stream_states(seed, keys)
    row_seed = _RowSeed()
    for lo in range(0, len(p_h), _BLOCK_ROWS):
        block = []
        for state, row in zip(states[lo:lo + _BLOCK_ROWS], p_h[lo:lo + _BLOCK_ROWS].tolist()):
            row_seed.state = state
            binomial = np.random.Generator(np.random.PCG64(row_seed)).binomial
            # scalar draws in row order are the draws of one array call on the
            # row, without its per-call validation pass over the array
            block.append([binomial(shots, p) for p in row])
        counts[lo:lo + _BLOCK_ROWS] = block
    return counts / shots
